"""Constructive classics: Hamiltonian paths, Hamiltonian cycles in strong
tournaments, and cycles of every length through any chosen vertex."""

from __future__ import annotations

from .core import Cycle, Path, Tournament, VertexRangeError, bits, is_cycle, mask_of


class NotStrongError(ValueError):
    """Raised when an operation requires a strongly connected tournament."""


# Every kernel below works on the subtournament induced by a vertex mask of the
# parent tournament (all vertices by default) and returns parent labels.  Ties
# always go to the lower label, so a result equals the one computed on
# ``t.induced(...)`` and mapped back through its order-preserving relabelling.


def _require_strong(t: Tournament, mask: int) -> None:
    comps = t.strong_components(mask)
    if len(comps) > 1:
        top = sorted(comps[0])
        rest = sorted(v for c in comps[1:] for v in c)
        raise NotStrongError(f"not strong: {top} dominates {rest}")


def hamiltonian_path(t: Tournament, mask: int | None = None) -> Path:
    """Insertion construction in ascending label order: each vertex goes into
    the first feasible slot, which is just before the first path vertex it
    beats (or at the end when it beats none)."""
    rows = t.rows
    path: list[int] = []
    for v in bits(t._scope(mask)):
        row = rows[v]
        slot = next((i for i, w in enumerate(path) if row >> w & 1), len(path))
        path.insert(slot, v)
    return tuple(path)


def _triangle_through(t: Tournament, v: int, mask: int) -> Cycle:
    """Lowest-labeled 3-cycle through v inside ``mask``; exists whenever the
    subtournament is strong and has at least 3 vertices."""
    rows = t.rows
    inc = t.cols[v] & mask
    for x in bits(rows[v] & mask):
        hit = rows[x] & inc
        if hit:
            return (v, x, next(bits(hit)))
    raise NotStrongError(f"no 3-cycle through vertex {v}")


def _grow_cycle(t: Tournament, cycle: Cycle, keep: int | None, mask: int) -> Cycle:
    """One growth step inside ``mask``: a cycle one vertex longer, never
    dropping ``keep``.

    If some outside vertex has arcs both into and out of the cycle it is
    spliced between a dominating/dominated consecutive pair, preserving every
    cycle vertex.  Otherwise the outside vertices split into full dominators
    and fully dominated ones; an arc from the dominated side to the dominating
    side replaces a single cycle vertex with that vertex pair.
    """
    rows, cols = t.rows, t.cols
    cmask = mask_of(cycle)
    outside = mask & ~cmask
    m = len(cycle)
    for u in bits(outside):
        if rows[u] & cmask and cols[u] & cmask:
            row, col = rows[u], cols[u]
            for i in range(m):
                if col >> cycle[i] & 1 and row >> cycle[(i + 1) % m] & 1:
                    return cycle[: i + 1] + (u,) + cycle[i + 1 :]
            raise AssertionError("mixed vertex with no insertion point")
    dominated = [u for u in bits(outside) if not rows[u] & cmask]
    dominators = mask_of(u for u in bits(outside) if not cols[u] & cmask)
    for b in dominated:
        hit = rows[b] & dominators
        if hit:
            a = next(bits(hit))
            drop = min(v for v in cycle if v != keep)
            i = cycle.index(drop)
            rotated = cycle[i:] + cycle[:i]  # rotated[0] is dropped
            return (rotated[-1], b, a) + rotated[1:-1]
    raise NotStrongError("cycle cannot be extended; tournament is not strong")


def extend_cycle(t: Tournament, cycle: Cycle) -> Cycle:
    """Grow a cycle of a strong tournament by one vertex."""
    if not is_cycle(t, cycle):
        raise ValueError(f"not a valid cycle: {cycle}")
    if len(cycle) >= t.n:
        raise ValueError("cycle is already Hamiltonian")
    _require_strong(t, t.full_mask)
    return _grow_cycle(t, cycle, None, t.full_mask)


def hamiltonian_cycle(t: Tournament, mask: int | None = None) -> Cycle:
    mask = t._scope(mask)
    size = mask.bit_count()
    if size < 3:
        raise NotStrongError(f"no cycle exists on {size} vertex(es)")
    return cycle_of_length(t, size, mask)


def cycle_of_length(t: Tournament, length: int, mask: int | None = None) -> Cycle:
    mask = t._scope(mask)
    _require_strong(t, mask)
    if not 3 <= length <= mask.bit_count():
        raise ValueError(f"cycle length {length} outside 3..{mask.bit_count()}")
    cycle = _triangle_through(t, next(bits(mask)), mask)
    while len(cycle) < length:
        cycle = _grow_cycle(t, cycle, None, mask)
    return cycle


def cycle_through_vertex(t: Tournament, v: int, length: int, mask: int | None = None) -> Cycle:
    """A cycle of exactly ``length`` vertices containing v (the subtournament
    on ``mask`` strong)."""
    t._check_vertex(v)
    mask = t._scope(mask)
    if not mask >> v & 1:
        raise VertexRangeError(f"vertex {v} outside the mask")
    _require_strong(t, mask)
    if not 3 <= length <= mask.bit_count():
        raise ValueError(f"cycle length {length} outside 3..{mask.bit_count()}")
    cycle = _triangle_through(t, v, mask)
    while len(cycle) < length:
        cycle = _grow_cycle(t, cycle, v, mask)
    return cycle
