"""Tournaments as per-vertex out-neighbor bitmasks, plus the basic structural queries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 4096

# Cycles and paths are plain vertex tuples; validity is relative to a tournament.
Cycle = tuple[int, ...]
Path = tuple[int, ...]
VertexSet = frozenset[int]


class TournamentError(ValueError):
    """A tournament could not be built from the given data."""


class SelfLoopError(TournamentError):
    pass


class VertexRangeError(TournamentError):
    pass


class DuplicatePairError(TournamentError):
    pass


class MissingPairError(TournamentError):
    pass


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class CyclePacking:
    """Pairwise disjoint cycles of one common length q."""

    q: int
    cycles: tuple[Cycle, ...]

    def __len__(self) -> int:
        return len(self.cycles)

    def vertex_mask(self) -> int:
        m = 0
        for c in self.cycles:
            m |= mask_of(c)
        return m


class Tournament:
    """Complete antisymmetric digraph on vertices 0..n-1.

    ``rows[i]`` is the bitmask of out-neighbors of vertex ``i``; ``cols[i]``
    the in-neighbors.  Instances are immutable; every operation is a pure
    function of the stored bits.
    """

    __slots__ = ("n", "rows", "cols", "full_mask")

    def __init__(self, rows: Sequence[int]):
        n = len(rows)
        if not 1 <= n <= MAX_VERTICES:
            raise VertexRangeError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            if row & ~full:
                raise VertexRangeError(f"row {i} references vertices outside 0..{n - 1}")
            if row >> i & 1:
                raise SelfLoopError(f"vertex {i} has a self-loop")
        # Transpose at C speed.  Stack the binary strings of rows n-1 down to 0:
        # character column k of that grid, read as a binary number, has bit i
        # equal to bit n-1-k of rows[i], so it is cols[n-1-k].
        fmt = f"0{n}b"
        cols = [
            int("".join(col), 2) for col in zip(*[format(row, fmt) for row in reversed(rows)])
        ][::-1]
        for i in range(n):
            if rows[i] & cols[i]:
                j = next(bits(rows[i] & cols[i]))
                raise DuplicatePairError(f"both arcs present between {i} and {j}")
            if (rows[i] | cols[i]) != full ^ (1 << i):
                j = next(bits(full ^ (1 << i) ^ rows[i] ^ cols[i]))
                raise MissingPairError(f"no arc between {i} and {j}")
        self.n = n
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self.full_mask = full

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tournament) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Tournament(n={self.n})"

    def arc(self, u: int, v: int) -> bool:
        """True iff u beats v."""
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def out_mask(self, v: int) -> int:
        return self.rows[v]

    def in_mask(self, v: int) -> int:
        return self.cols[v]

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v} outside 0..{self.n - 1}")

    def _check_set(self, vs: Iterable[int]) -> int:
        m = 0
        for v in vs:
            self._check_vertex(v)
            m |= 1 << v
        return m

    def out_degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.rows[v].bit_count()

    def min_out_degree(self) -> int:
        return min(row.bit_count() for row in self.rows)

    def arcs_between(self, xs: Iterable[int], ys: Iterable[int]) -> int:
        """Number of arcs from X to Y; X and Y must be disjoint."""
        xmask = self._check_set(xs)
        ymask = self._check_set(ys)
        if xmask & ymask:
            raise ValueError("arcs_between requires disjoint vertex sets")
        return sum((self.rows[x] & ymask).bit_count() for x in bits(xmask))

    def dominates(self, xs: Iterable[int], ys: Iterable[int]) -> bool:
        """True iff every x in X beats every y in Y (vacuously true on empty sets)."""
        xmask = self._check_set(xs)
        ymask = self._check_set(ys)
        if xmask & ymask:
            raise ValueError("dominates requires disjoint vertex sets")
        return all(self.rows[x] & ymask == ymask for x in bits(xmask))

    def induced(self, vs: Iterable[int]) -> tuple["Tournament", tuple[int, ...]]:
        """Subtournament on ``vs`` plus the map from new labels back to old ones."""
        vmask = self._check_set(vs)
        if not vmask:
            raise ValueError("induced subtournament needs a nonempty vertex set")
        old = tuple(bits(vmask))
        pos = {v: i for i, v in enumerate(old)}
        rows = []
        for v in old:
            row = 0
            for w in bits(self.rows[v] & vmask):
                row |= 1 << pos[w]
            rows.append(row)
        return Tournament(rows), old

    def _scope(self, mask: int | None) -> int:
        """The vertex mask a kernel works on: ``mask``, or every vertex when None."""
        if mask is None:
            return self.full_mask
        if mask & ~self.full_mask:
            raise VertexRangeError(f"mask references vertices outside 0..{self.n - 1}")
        return mask

    def strong_components(self, mask: int | None = None) -> list[VertexSet]:
        """Strongly connected components of the subtournament on ``mask`` (all
        vertices by default), ordered so each dominates all later ones.

        A prefix of the out-degree-descending vertex order is a union of top
        components exactly when it dominates the rest, i.e. when its degree sum
        equals C(p,2) + p*(n-p); components never interleave in that order.
        Degrees count only arcs inside the mask; ties go to the lower label.
        """
        mask = self._scope(mask)
        rows = self.rows
        n = mask.bit_count()
        deg = {v: (rows[v] & mask).bit_count() for v in bits(mask)}
        order = sorted(deg, key=lambda v: -deg[v])
        comps: list[VertexSet] = []
        start = 0
        degsum = 0
        for p, v in enumerate(order, 1):
            degsum += deg[v]
            if degsum - p * (p - 1) // 2 == p * (n - p):
                comps.append(frozenset(order[start:p]))
                start = p
        return comps

    def is_q_cycle_free(self, q: int) -> bool:
        """True iff no directed q-cycle exists: every strong component has < q vertices."""
        if q < 3:
            raise ValueError("cycle length must be at least 3")
        return all(len(c) < q for c in self.strong_components())


def build_tournament(n: int, arcs: Iterable[tuple[int, int]]) -> Tournament:
    """Build a tournament from an explicit arc list covering every pair exactly once."""
    if not 1 <= n <= MAX_VERTICES:
        raise VertexRangeError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    rows = [0] * n
    for i, j in arcs:
        if not (0 <= i < n and 0 <= j < n):
            raise VertexRangeError(f"arc ({i}, {j}) outside 0..{n - 1}")
        if i == j:
            raise SelfLoopError(f"self-loop on vertex {i}")
        if (rows[i] >> j | rows[j] >> i) & 1:
            raise DuplicatePairError(f"duplicate pair {{{min(i, j)}, {max(i, j)}}}")
        rows[i] |= 1 << j
    return Tournament(rows)


def is_path(t: Tournament, seq: Sequence[int]) -> bool:
    """Vertices distinct and every consecutive arc present."""
    if len(set(seq)) != len(seq):
        return False
    if any(not 0 <= v < t.n for v in seq):
        return False
    rows = t.rows
    return all(rows[a] >> b & 1 for a, b in zip(seq, seq[1:]))


def is_cycle(t: Tournament, seq: Sequence[int]) -> bool:
    """A valid directed cycle: at least 3 distinct vertices, all arcs present."""
    if len(seq) < 3:
        return False
    return is_path(t, seq) and t.arc(seq[-1], seq[0])
