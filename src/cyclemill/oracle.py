"""Exact desk-scale computations: enumerate q-cycles, exact maximum disjoint
q-cycle packings by branch and bound, and exhaustive or sampled searches for
threshold violators."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import trn
from .core import Cycle, CyclePacking, Tournament, bits, mask_of
from .gen import derive_seed, random_tournament

DEFAULT_CYCLE_CAP = 200_000


class OracleCapError(RuntimeError):
    """The instance has too many q-cycles for exact computation."""


def enumerate_q_cycles(t: Tournament, q: int, cap: int = DEFAULT_CYCLE_CAP) -> tuple[list[Cycle], bool]:
    """All q-cycles up to rotation, lowest vertex first; truncated at ``cap``.

    Returns (cycles, overflowed).  Cycles live inside strong components, so
    the search never leaves one.  Paths grow in ascending label order from an
    explicit stack holding, per path vertex, its successors not tried yet; the
    q-th vertex is read off directly as a successor that beats ``start``.
    """
    if q < 3:
        raise ValueError("cycle length must be at least 3")
    rows, cols = t.rows, t.cols
    found: list[Cycle] = []
    for comp in t.strong_components():
        if len(comp) < q:
            continue
        comp_mask = mask_of(comp)
        for start in sorted(comp):
            free = comp_mask & ~((2 << start) - 1)  # vertices above start, off the path
            closing = free & cols[start]
            path = [start]
            untried = [rows[start] & free]
            while untried:
                succ = untried[-1]
                if not succ:
                    untried.pop()
                    free |= 1 << path.pop()
                    continue
                low = succ & -succ
                untried[-1] = succ ^ low
                v = low.bit_length() - 1
                free ^= low
                if len(path) < q - 2:
                    path.append(v)
                    untried.append(rows[v] & free)
                    continue
                for w in bits(rows[v] & free & closing):
                    if len(found) >= cap:
                        return found, True
                    found.append((*path, v, w))
                free |= low
    return found, False


def max_disjoint_q_cycles(
    t: Tournament,
    q: int,
    limit: int | None = None,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> tuple[int, CyclePacking]:
    """Exact maximum number of disjoint q-cycles, with a witness packing.

    Branches on the lowest uncovered vertex: either one of its cycles joins the
    packing or the vertex is left uncovered.  With ``limit`` set, the search
    stops as soon as that many disjoint cycles are found, so a result below the
    limit is still the exact maximum.  Raises ``OracleCapError`` when the
    instance has more than ``cycle_cap`` q-cycles.

    The search keeps one lazy iterator of child nodes per level on an explicit
    stack; a node is (free vertices, chosen cycles as a linked list of
    ``(index, rest)`` pairs, their number).
    """
    cycles, overflow = enumerate_q_cycles(t, q, cycle_cap)
    if overflow:
        raise OracleCapError(f"more than {cycle_cap} {q}-cycles; exact search refused")
    masks = [mask_of(c) for c in cycles]
    union = 0
    for m in masks:
        union |= m
    by_vertex: dict[int, list[int]] = {v: [] for v in bits(union)}
    for idx, m in enumerate(masks):
        for v in bits(m):
            by_vertex[v].append(idx)

    best, best_len = None, 0
    levels = [iter([(t.full_mask, None, 0)])]
    while levels:
        node = next(levels[-1], None)
        if node is None:
            levels.pop()
            continue
        free, chosen, depth = node
        if depth > best_len:
            best, best_len = chosen, depth
            if limit is not None and best_len >= limit:
                break
        live = free & union
        if depth + live.bit_count() // q > best_len:
            levels.append(_children(free, chosen, depth, live & -live, masks, by_vertex))
    picked = []
    while best is not None:
        idx, best = best
        picked.append(cycles[idx])
    return best_len, CyclePacking(q, tuple(reversed(picked)))


def _children(free, chosen, depth, low, masks, by_vertex):
    """Child nodes in visiting order: each cycle through the lowest live vertex
    (the bit ``low``) that fits in ``free``, then that vertex left uncovered."""
    for idx in by_vertex[low.bit_length() - 1]:
        if not masks[idx] & ~free:
            yield free & ~masks[idx], (idx, chosen), depth + 1
    yield free & ~low, chosen, depth


@dataclass(frozen=True)
class SearchSpec:
    """What to search for: q-cycle count targets over a vertex-count range."""

    q: int
    k: int
    n_range: tuple[int, int]
    mode: str = "exhaustive"  # or "random"
    sample_count: int = 0
    seed: int = 0
    degree_floor: int | None = None

    def __post_init__(self) -> None:
        if self.q < 3 or self.k < 1:
            raise ValueError("need q >= 3 and k >= 1")
        lo, hi = self.n_range
        if lo < self.q or hi < lo:
            raise ValueError(f"vertex range {self.n_range} must start at q={self.q}")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "random" and self.sample_count < 1:
            raise ValueError("random mode needs sample_count >= 1")
        if self.floor < 0:
            raise ValueError("degree_floor must be nonnegative")

    @property
    def floor(self) -> int:
        if self.degree_floor is not None:
            return self.degree_floor
        return (self.q - 1) * self.k - 1


@dataclass
class SearchReport:
    spec: SearchSpec
    examined: int = 0
    violators: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        lines = list(self.violators)
        lines.append(
            f"examined={self.examined} violators={len(self.violators)} seed={self.spec.seed}"
        )
        return "\n".join(lines) + "\n"


def _pair_bits(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _degree_tables(pairs: list[tuple[int, int]], n: int, width: int, offset: int):
    """Out-degree contribution of each value of a contiguous bit chunk."""
    table = []
    for value in range(1 << width):
        deg = [0] * n
        for b in range(width):
            i, j = pairs[offset + b]
            if value >> b & 1:
                deg[i] += 1
            else:
                deg[j] += 1
        table.append(tuple(deg))
    return table


def _tournament_from_pattern(n: int, pairs: list[tuple[int, int]], pattern: int) -> Tournament:
    rows = [0] * n
    for b, (i, j) in enumerate(pairs):
        if pattern >> b & 1:
            rows[i] |= 1 << j
        else:
            rows[j] |= 1 << i
    return Tournament(rows)


def counterexample_search(spec: SearchSpec, shards: int = 1) -> SearchReport:
    """Check every examined tournament for at least k disjoint q-cycles.

    Exhaustive mode walks the upper-triangle bit patterns in lexicographic
    order (split into ``shards`` contiguous ranges, merged in order, so the
    report bytes do not depend on the shard count); random mode derives one
    tournament per sample index from the seed.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    report = SearchReport(spec)
    if spec.mode == "exhaustive":
        for n in range(spec.n_range[0], spec.n_range[1] + 1):
            _exhaustive_scan(spec, n, shards, report)
    else:
        _random_scan(spec, shards, report)
    return report


def _test_instance(spec: SearchSpec, t: Tournament, report: SearchReport) -> None:
    report.examined += 1
    count, _ = max_disjoint_q_cycles(t, spec.q, limit=spec.k)
    if count < spec.k:
        report.violators.append(f"{t.n} {''.join(trn.rows_text(t))}")


def _exhaustive_scan(spec: SearchSpec, n: int, shards: int, report: SearchReport) -> None:
    if n > 8:
        raise ValueError(
            f"exhaustive mode stops at 8 vertices ({n * (n - 1) // 2} pair bits); use random mode"
        )
    pairs = _pair_bits(n)
    nbits = len(pairs)
    total = 1 << nbits
    lo_bits = min(nbits, 12)
    lo_table = _degree_tables(pairs, n, lo_bits, 0)
    hi_table = _degree_tables(pairs, n, nbits - lo_bits, lo_bits)
    lo_mask = (1 << lo_bits) - 1
    floor = spec.floor
    bounds = [total * s // shards for s in range(shards + 1)]
    for s in range(shards):
        for pattern in range(bounds[s], bounds[s + 1]):
            dl = lo_table[pattern & lo_mask]
            dh = hi_table[pattern >> lo_bits]
            for a, b in zip(dl, dh):
                if a + b < floor:
                    break
            else:
                _test_instance(spec, _tournament_from_pattern(n, pairs, pattern), report)


def _random_scan(spec: SearchSpec, shards: int, report: SearchReport) -> None:
    lo, hi = spec.n_range
    bounds = [spec.sample_count * s // shards for s in range(shards + 1)]
    for s in range(shards):
        for idx in range(bounds[s], bounds[s + 1]):
            rng = random.Random(derive_seed(spec.seed, 0x5EA2C4, idx))
            n = rng.randint(lo, hi)
            t = random_tournament(n, rng.getrandbits(63))
            if t.min_out_degree() >= spec.floor:
                _test_instance(spec, t, report)
