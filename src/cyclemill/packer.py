"""Disjoint q-cycle packing: greedy maximal families, local improvement moves
that trade packed cycles plus path vertices for strictly more cycles, growth of
the cycle at the tail of the remainder path, and the verified solver loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import surgery
from .classic import (
    NotStrongError,
    cycle_of_length,
    cycle_through_vertex,
    hamiltonian_cycle,
    hamiltonian_path,
)
from .core import Cycle, CyclePacking, Path, Tournament, VertexSet, bits, is_cycle, is_path, mask_of
from .matching import dominating_vertices, max_matching_with_cover
from .oracle import OracleCapError, max_disjoint_q_cycles


@dataclass(frozen=True)
class PathPartition:
    """The remainder path split into its last q+1 vertices, the 3q-6 before
    them, and everything earlier.  ``path`` runs in arc order; positions count
    from the end, so position 1 is ``path[-1]``."""

    q: int
    path: Path
    u1: VertexSet
    s: VertexSet
    u2: VertexSet

    @property
    def degenerate(self) -> bool:
        return len(self.path) < 4 * self.q - 5

    def at_position(self, pos: int) -> int:
        return self.path[len(self.path) - pos]

    def position_of(self, v: int) -> int:
        return len(self.path) - self.path.index(v)


@dataclass(frozen=True)
class PackBudget:
    max_moves: int | None = None  # defaults to n^2
    oracle_cycle_cap: int = 200_000


@dataclass
class PackReport:
    packing: CyclePacking
    status: str  # target_met | maximal_but_short | hypothesis_unmet
    k: int
    moves_applied: list[tuple[str, int, int]] = field(default_factory=list)
    fallback_used: bool = False
    flags_counterexample: bool = False
    diagnostics: str = ""

    def to_text(self) -> str:
        lines = [f"status={self.status}", f"q={self.packing.q}", f"k={self.k}"]
        for cycle in self.packing.cycles:
            lines.append(" ".join(str(v) for v in cycle))
        for name, before, after in self.moves_applied:
            lines.append(f"MOVE {name} {before} {after}")
        return "\n".join(lines) + "\n"


def greedy_maximal_packing(t: Tournament, q: int, start: Iterable[Cycle] = ()) -> CyclePacking:
    """Extend ``start`` with q-cycles taken from large strong components of the
    remainder until the remainder is q-cycle-free."""
    if q < 3:
        raise ValueError("cycle length must be at least 3")
    cycles = list(start)
    used = 0
    for c in cycles:
        used |= mask_of(c)
    while True:
        free = t.full_mask & ~used
        if free.bit_count() < q:
            break
        comp = next((c for c in t.strong_components(free) if len(c) >= q), None)
        if comp is None:
            break
        cycle = cycle_of_length(t, q, mask_of(comp))
        cycles.append(cycle)
        used |= mask_of(cycle)
    return CyclePacking(q, tuple(cycles))


def partition_remainder(t: Tournament, packing: CyclePacking) -> PathPartition:
    """Hamiltonian path of the unpacked vertices with the positional split.
    A remainder shorter than 4q-5 yields a degenerate partition (empty u2)."""
    q = packing.q
    free = t.full_mask & ~packing.vertex_mask()
    path = hamiltonian_path(t, free)
    r = len(path)
    u1 = frozenset(path[max(0, r - (q + 1)):])
    if r >= 4 * q - 5:
        s = frozenset(path[r - (4 * q - 5): r - (q + 1)])
    else:
        s = frozenset(path[: max(0, r - (q + 1))])
    u2 = frozenset(path) - u1 - s
    return PathPartition(q, path, u1, s, u2)


def select_receptive_cycle(t: Tournament, f1: Iterable[int], packing: CyclePacking) -> Cycle:
    """The packed cycle receiving the most arcs from f1; ties to lowest index."""
    if not packing.cycles:
        raise ValueError("packing is empty")
    f1set = set(f1)
    best_idx = max(
        range(len(packing.cycles)),
        key=lambda i: (t.arcs_between(f1set, set(packing.cycles[i])), -i),
    )
    return packing.cycles[best_idx]


def verify_packing(
    t: Tournament, packing: CyclePacking, q: int, k: int
) -> tuple[bool, str | None]:
    """Check all packing invariants, reporting the first violation found."""
    if packing.q != q:
        return False, f"packing length {packing.q} != {q}"
    seen = 0
    for idx, cycle in enumerate(packing.cycles):
        if len(cycle) != q:
            return False, f"cycle {idx} has length {len(cycle)} != {q}"
        if len(set(cycle)) != len(cycle):
            return False, f"cycle {idx} repeats a vertex"
        for v in cycle:
            if not 0 <= v < t.n:
                return False, f"cycle {idx} vertex {v} out of range"
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not t.arc(a, b):
                return False, f"cycle {idx} step ({a}, {b}) is not an arc"
        m = mask_of(cycle)
        if m & seen:
            shared = next(bits(m & seen))
            return False, f"vertex {shared} appears in two cycles"
        seen |= m
    if len(packing.cycles) < k:
        return False, f"only {len(packing.cycles)} cycles, need {k}"
    return True, None


# ---------------------------------------------------------------------------
# Improvement moves
# ---------------------------------------------------------------------------


def move_absorb(
    t: Tournament, packing: CyclePacking, partition: PathPartition
) -> Optional[CyclePacking]:
    """Swap one outside vertex into a packed cycle so the freed vertex completes
    a new q-cycle in the remainder: one packed cycle becomes two."""
    q = packing.q
    rem = mask_of(partition.path)
    for idx, cycle in enumerate(packing.cycles):
        for w in sorted(cycle):
            core_mask = mask_of(cycle) & ~(1 << w)
            if q >= 4 and len(t.strong_components(core_mask)) != 1:
                continue
            for u in bits(rem):
                if not (t.in_mask(u) & core_mask and t.out_mask(u) & core_mask):
                    continue
                grown = core_mask | 1 << u
                if len(t.strong_components(grown)) != 1:
                    continue
                replacement = hamiltonian_cycle(t, grown)
                new_rem = rem & ~(1 << u) | 1 << w
                comp = next((c for c in t.strong_components(new_rem) if len(c) >= q), None)
                if comp is None:
                    continue
                harvested = cycle_of_length(t, q, mask_of(comp))
                cycles = list(packing.cycles)
                cycles[idx] = replacement
                cycles.append(harvested)
                return CyclePacking(q, tuple(cycles))
    return None


def _segment_by_positions(partition: PathPartition, hi: int, lo: int) -> tuple[int, ...]:
    """Path vertices at positions hi down to lo (arc order along the path)."""
    r = len(partition.path)
    return partition.path[r - hi: r - lo + 1]


def move_two_for_one(
    t: Tournament, packing: CyclePacking, partition: PathPartition
) -> Optional[CyclePacking]:
    """Replace one packed cycle by two, threading matched arcs through two
    disjoint stretches of the remainder path.  Needs a q-matching into the
    cycle from the last q+1 path vertices and a 2-matching out of it into the
    far end of the path."""
    q = packing.q
    if partition.degenerate or not partition.u2:
        return None
    for idx, cycle in enumerate(packing.cycles):
        cyc_set = set(cycle)
        m1, _ = max_matching_with_cover(t, partition.u1, cyc_set)
        if len(m1) < q:
            continue
        partner = {x: u for u, x in m1}
        m2, _ = max_matching_with_cover(t, cyc_set, partition.u2)
        if len(m2) < 2:
            continue
        pairs = sorted(m2, key=lambda p: -partition.position_of(p[1]))[:2]
        (x_a, far), (x_b, near) = pairs
        try:
            seg1 = (near,) + _segment_by_positions(
                partition, partition.position_of(near) - 1, 3 * q - 2
            )
            c1 = surgery.splice_and_trim(t, partner[x_b], seg1, x_b, q)
            seg2 = (far,) + _segment_by_positions(partition, 3 * q - 3, 2 * q)
            c2 = surgery.splice_and_trim(t, partner[x_a], seg2, x_a, q)
        except ValueError:
            continue
        cycles = list(packing.cycles)
        cycles[idx] = c1
        cycles.append(c2)
        return CyclePacking(q, tuple(cycles))
    return None


def move_three_for_two(
    t: Tournament, packing: CyclePacking, partition: PathPartition
) -> Optional[CyclePacking]:
    """Replace two packed cycles by three.  Needs a q-matching into the first
    cycle, a 3-matching out of the second into the far end of the path, and
    enough arcs between the two cycles that three vertices of the first
    dominate the second."""
    q = packing.q
    threshold = q * q - q + 3
    if partition.degenerate or len(partition.u2) < 3:
        return None
    for ia, ca in enumerate(packing.cycles):
        a_set = set(ca)
        m1, _ = max_matching_with_cover(t, partition.u1, a_set)
        if len(m1) < q:
            continue
        partner = {x: u for u, x in m1}
        for ib, cb in enumerate(packing.cycles):
            if ib == ia:
                continue
            b_set = set(cb)
            if t.arcs_between(a_set, b_set) < threshold:
                continue
            m3, _ = max_matching_with_cover(t, b_set, partition.u2)
            if len(m3) < 3:
                continue
            doms = dominating_vertices(t, a_set, b_set)
            if len(doms) < 3:
                continue
            x1, x2, x3 = sorted(doms, key=lambda x: partition.position_of(partner[x]))[:3]
            pairs = sorted(m3, key=lambda p: -partition.position_of(p[1]))[:3]
            (y1, v1), (y2, v2), (y3, v3) = pairs
            try:
                seg_b = (v1,) + _segment_by_positions(
                    partition, 2 * q - 1, partition.position_of(partner[x3])
                )
                nb = surgery.splice_and_trim(t, x3, seg_b, y1, q)
                seg_c = (
                    (v2,)
                    + _segment_by_positions(partition, 3 * q - 3, 2 * q)
                    + (partner[x2],)
                )
                nc = surgery.splice_and_trim(t, x2, seg_c, y2, q)
                seg_d = (
                    _segment_by_positions(partition, partition.position_of(v3), 3 * q - 2)
                    + (partner[x1],)
                )
                nd = surgery.splice_and_trim(t, x1, seg_d, y3, q)
            except ValueError:
                continue
            cycles = [c for i, c in enumerate(packing.cycles) if i not in (ia, ib)]
            cycles.extend([nb, nc, nd])
            return CyclePacking(q, tuple(cycles))
    return None


# ---------------------------------------------------------------------------
# Tail growth
# ---------------------------------------------------------------------------


def _tail_scan(t: Tournament, v: int, pool: list[int], skip: set[int] = frozenset()) -> int | None:
    """First out-neighbor of v in ``pool`` scanning from the path tail upward."""
    for u in pool:
        if u not in skip and t.arc(v, u):
            return u
    return None


def _pick_z(
    t: Tournament, inner: Cycle, cycle: Cycle, shield: set[int], pprime: list[int]
) -> tuple[int, int] | None:
    """A vertex of the shrunk cycle sending nothing into ``shield``, at most
    m-3 arcs back into the full cycle, and at least one arc into the path."""
    q = len(cycle)
    cmask = mask_of(cycle)
    smask = mask_of(shield)
    for z in inner:
        if t.out_mask(z) & smask:
            continue
        if (t.out_mask(z) & cmask).bit_count() > q - 3:
            continue
        ui = _tail_scan(t, z, pprime)
        if ui is not None:
            return z, ui
    return None


def grow_tail(
    t: Tournament, packing: CyclePacking, path: Path
) -> Optional[tuple[CyclePacking, Cycle, Path]]:
    """Trade a packed cycle for a same-length one so the remainder's tail cycle
    (the one through the last vertex of its Hamiltonian path) gets strictly
    longer, or comes into existence.

    Returns (new packing, new tail cycle, new remainder path) or None when no
    case applies.  The remainder must be q-cycle-free.
    """
    q = packing.q
    free = t.full_mask & ~packing.vertex_mask()
    if set(path) != set(bits(free)) or not is_path(t, path):
        raise ValueError("path is not a Hamiltonian path of the remainder")
    if not path:
        return None
    comps = t.strong_components(free)
    if any(len(c) >= q for c in comps):
        raise ValueError("remainder already contains a q-cycle")
    if not packing.cycles or q < 7:
        return None
    r = len(path)
    u1 = path[-1]
    block = next(c for c in comps if u1 in c)
    if len(block) >= 3:
        return _grow_existing(t, packing, path, block)
    if r < 2:
        return None
    u2 = path[-2]
    b_block = next(c for c in comps if u2 in c)
    if len(b_block) >= 3:
        return _grow_from_pretail(t, packing, path, b_block)
    return _grow_from_nothing(t, packing, path)


def _swap_cycle(packing: CyclePacking, old: Cycle, new: Cycle) -> CyclePacking:
    cycles = list(packing.cycles)
    cycles[cycles.index(old)] = new
    return CyclePacking(packing.q, tuple(cycles))


def _rotate_to_member(cycle: Cycle, members: set[int]) -> Cycle:
    for i, v in enumerate(cycle):
        if v in members:
            return cycle[i:] + cycle[:i]
    raise AssertionError("no cycle vertex inside the anchor set")


def _grow_from_nothing(
    t: Tournament, packing: CyclePacking, path: Path
) -> Optional[tuple[CyclePacking, Cycle, Path]]:
    """Neither of the last two path vertices lies on any remainder cycle; build
    a 4-cycle tail from a shrunk packed cycle's leftover arc."""
    q = packing.q
    u1, u2 = path[-1], path[-2]
    pprime = list(reversed(path[:-2]))  # tail-first scan order
    if not pprime:
        return None
    ci = select_receptive_cycle(t, [u1, u2], packing)
    if not t.dominates([u1, u2], ci):
        return None
    inner, (x, y) = surgery.fact3_double_shrink(t, ci)
    picked = _pick_z(t, inner, ci, {u1, u2}, pprime)
    if picked is None:
        return None
    _, ui = picked
    uj = _tail_scan(t, y, pprime, skip={ui})
    if uj is None:
        return None
    try:
        fresh = hamiltonian_cycle(t, mask_of(set(inner) | {u2, ui}))
    except NotStrongError:
        return None
    tail = (u1, x, y, uj)
    assert is_cycle(t, tail)
    new_packing = _swap_cycle(packing, ci, fresh)
    stem = hamiltonian_path(t, mask_of(set(path[:-2]) - {ui, uj}))
    new_path = stem + tail
    return new_packing, tail, new_path


def _grow_from_pretail(
    t: Tournament, packing: CyclePacking, path: Path, b_block: frozenset[int]
) -> Optional[tuple[CyclePacking, Cycle, Path]]:
    """The next-to-last vertex lies on a cycle B but the last does not; free a
    vertex from a packed cycle to close a tail cycle strictly containing B."""
    q = packing.q
    u1 = path[-1]
    nb = len(b_block)
    pprime = list(reversed(path[: len(path) - nb - 1]))
    ci = select_receptive_cycle(t, b_block | {u1}, packing)
    ci_set = set(ci)

    if nb == q - 1:
        inner, x = surgery.fact2_shrink(t, ci)
        start = _tail_scan(t, u1, list(inner))
        if start is None:
            return None
        rotated = _rotate_to_member(inner, {start})
        if t.arcs_between(b_block, [x]) < 1:
            return None
        if t.out_mask(x) & mask_of(b_block):
            try:
                fresh = hamiltonian_cycle(t, mask_of(b_block | {x}))
            except NotStrongError:
                return None
            new_packing = _swap_cycle(packing, ci, fresh)
            new_path = tuple(reversed(pprime)) + (u1,) + rotated
            return new_packing, inner, new_path
        ui = _tail_scan(t, x, pprime)
        if ui is None:
            return None
        try:
            fresh = cycle_through_vertex(t, x, q, mask_of(b_block | {x, ui}))
        except (NotStrongError, ValueError):
            return None
        leftover = next(iter((b_block | {x, ui}) - set(fresh)))
        new_packing = _swap_cycle(packing, ci, fresh)
        stem = hamiltonian_path(t, mask_of(set(pprime) - {ui}))
        new_path = stem + (leftover, u1) + rotated
        return new_packing, inner, new_path

    inner, (x, y) = surgery.fact3_double_shrink(t, ci)
    if any(t.arcs_between(b_block, [v]) < 1 for v in ci_set):
        return None
    bmask = mask_of(b_block)

    if t.out_mask(y) & bmask:  # tail gains the leftover arc directly
        picked = _pick_z(t, inner, ci, set(b_block) | {u1}, pprime)
        if picked is None:
            return None
        _, ui = picked
        try:
            fresh = hamiltonian_cycle(t, mask_of(set(inner) | {u1, ui}))
            tail = hamiltonian_cycle(t, mask_of(b_block | {x, y}))
        except NotStrongError:
            return None
        new_packing = _swap_cycle(packing, ci, fresh)
        rotated = _rotate_to_member(tail, set(b_block))
        stem = hamiltonian_path(t, mask_of(set(pprime) - {ui}))
        return new_packing, tail, stem + rotated

    if t.arc(y, u1):  # absorb the whole tail vertex into the packed cycle first
        try:
            grown = hamiltonian_cycle(t, mask_of(ci_set | {u1}))
        except NotStrongError:
            return None
        fresh, z = surgery.fact2_shrink(t, grown)
        new_packing = _swap_cycle(packing, ci, fresh)
        if t.out_mask(z) & bmask and t.arcs_between(b_block, [z]) >= 1:
            try:
                tail = hamiltonian_cycle(t, mask_of(b_block | {z}))
            except NotStrongError:
                return None
            rotated = _rotate_to_member(tail, set(b_block))
            return new_packing, tail, tuple(reversed(pprime)) + rotated
        ui = _tail_scan(t, z, pprime)
        if ui is None or not t.arcs_between(b_block, [z]):
            return None
        try:
            tail = hamiltonian_cycle(t, mask_of(b_block | {z, ui}))
        except NotStrongError:
            return None
        rotated = _rotate_to_member(tail, set(b_block))
        stem = hamiltonian_path(t, mask_of(set(pprime) - {ui}))
        return new_packing, tail, stem + rotated

    # y sends nothing into the tail side at all
    picked = _pick_z(t, inner, ci, set(b_block) | {u1}, pprime)
    if picked is None:
        return None
    _, ui = picked
    us = _tail_scan(t, y, pprime, skip={ui})
    if us is None:
        return None
    try:
        fresh = hamiltonian_cycle(t, mask_of(set(inner) | {u1, ui}))
        tail = hamiltonian_cycle(t, mask_of(b_block | {x, y, us}))
    except NotStrongError:
        return None
    new_packing = _swap_cycle(packing, ci, fresh)
    rotated = _rotate_to_member(tail, set(b_block))
    stem = hamiltonian_path(t, mask_of(set(pprime) - {ui, us}))
    return new_packing, tail, stem + rotated


def _grow_existing(
    t: Tournament, packing: CyclePacking, path: Path, block: frozenset[int]
) -> Optional[tuple[CyclePacking, Cycle, Path]]:
    """The tail cycle exists (the last strong block); lengthen it by one or two
    vertices freed from a packed cycle."""
    q = packing.q
    size = len(block)
    if size >= q:
        raise AssertionError("remainder block of size >= q survived the precondition")
    pprime = list(reversed(path[: len(path) - size]))
    if not pprime:
        return None
    ci = select_receptive_cycle(t, block, packing)
    ci_set = set(ci)
    inner, (x, y) = surgery.fact3_double_shrink(t, ci)
    inner_mask = mask_of(inner)
    if any(not t.out_mask(v) & inner_mask for v in block):
        return None
    picked = _pick_z(t, inner, ci, set(block), pprime)
    if picked is None:
        return None
    _, ui = picked
    bmask = mask_of(block)

    if size >= 4:
        if t.out_mask(y) & bmask:
            us = next(v for v in sorted(block) if t.arc(y, v))
            short = cycle_through_vertex(t, us, size - 1, bmask)
            leftover = next(iter(block - set(short)))
            if not any(t.arc(v, x) for v in short):
                return None
            try:
                tail = hamiltonian_cycle(t, mask_of(set(short) | {x, y}))
                fresh = hamiltonian_cycle(t, mask_of(set(inner) | {leftover, ui}))
            except NotStrongError:
                return None
            new_packing = _swap_cycle(packing, ci, fresh)
            rotated = _rotate_to_member(tail, set(block))
            stem = hamiltonian_path(t, mask_of(set(pprime) - {ui}))
            return new_packing, tail, stem + rotated
        us = _tail_scan(t, y, pprime, skip={ui})
        if us is None:
            return None
        short = cycle_of_length(t, size - 1, bmask)
        leftover = next(iter(block - set(short)))
        if not any(t.arc(v, x) for v in short):
            return None
        try:
            fresh = hamiltonian_cycle(t, mask_of(set(inner) | {leftover, ui}))
            tail = hamiltonian_cycle(t, mask_of(set(short) | {x, y, us}))
        except NotStrongError:
            return None
        new_packing = _swap_cycle(packing, ci, fresh)
        rotated = _rotate_to_member(tail, set(block))
        stem = hamiltonian_path(t, mask_of(set(pprime) - {ui, us}))
        return new_packing, tail, stem + rotated

    # triangle tail
    if t.arcs_between(ci_set, block) > 1:
        return None
    tri = hamiltonian_cycle(t, bmask)
    hits = [v for v in tri if t.arc(y, v)]
    if len(hits) == 1:
        anchor = hits[0]
        i = tri.index(anchor)
        second = tri[(i + 1) % 3]
        third = tri[(i + 2) % 3]
        if not t.arc(second, x) or not t.out_mask(third) & inner_mask:
            return None
        tail = (anchor, second, x, y)
        assert is_cycle(t, tail)
        try:
            fresh = hamiltonian_cycle(t, mask_of(set(inner) | {third, ui}))
        except NotStrongError:
            return None
        new_packing = _swap_cycle(packing, ci, fresh)
        stem = hamiltonian_path(t, mask_of(set(pprime) - {ui}))
        return new_packing, tail, stem + tail
    if hits:
        return None
    us = _tail_scan(t, y, pprime, skip={ui})
    if us is None:
        return None
    for i in range(3):
        first, second, third = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
        if t.arc(second, x) and t.out_mask(third) & inner_mask:
            tail = (first, second, x, y, us)
            assert is_cycle(t, tail)
            try:
                fresh = hamiltonian_cycle(t, mask_of(set(inner) | {third, ui}))
            except NotStrongError:
                return None
            new_packing = _swap_cycle(packing, ci, fresh)
            stem = hamiltonian_path(t, mask_of(set(pprime) - {ui, us}))
            return new_packing, tail, stem + tail
    return None


# ---------------------------------------------------------------------------
# Solver loop
# ---------------------------------------------------------------------------

_MOVES = (
    ("absorb", move_absorb),
    ("two_for_one", move_two_for_one),
    ("three_for_two", move_three_for_two),
)


def pack(t: Tournament, q: int, k: int, budget: PackBudget | None = None) -> PackReport:
    """Greedy family, then improvement moves in fixed order, then (at desk
    scale) the exact oracle as a last resort.  status is target_met only when
    the minimum out-degree hypothesis (q-1)k-1 holds and k cycles were found."""
    if q < 3 or k < 1:
        raise ValueError("need q >= 3 and k >= 1")
    budget = budget or PackBudget()
    max_moves = budget.max_moves if budget.max_moves is not None else t.n * t.n
    hypothesis_ok = t.min_out_degree() >= (q - 1) * k - 1

    packing = greedy_maximal_packing(t, q)
    moves: list[tuple[str, int, int]] = [("greedy", 0, len(packing))]
    attempts = 0
    while len(packing) < k and attempts < max_moves:
        partition = partition_remainder(t, packing)
        fired = False
        for name, fn in _MOVES:
            attempts += 1
            result = fn(t, packing, partition)
            if result is not None:
                grown = greedy_maximal_packing(t, q, result.cycles)
                moves.append((name, len(packing), len(grown)))
                _assert_sound(t, grown, q)
                packing = grown
                fired = True
                break
            if attempts >= max_moves:
                break
        if fired:
            continue
        if attempts >= max_moves:
            break
        attempts += 1
        grown_tail = grow_tail(t, packing, partition.path)
        if grown_tail is None:
            break
        new_packing, _, _ = grown_tail
        harvested = greedy_maximal_packing(t, q, new_packing.cycles)
        moves.append(("grow_tail", len(packing), len(harvested)))
        _assert_sound(t, harvested, q)
        packing = harvested

    fallback_used = False
    if len(packing) < k:
        try:
            count, witness = max_disjoint_q_cycles(t, q, k, budget.oracle_cycle_cap)
        except OracleCapError:
            pass
        else:
            fallback_used = True
            if count > len(packing):
                moves.append(("oracle", len(packing), count))
                packing = witness

    _assert_sound(t, packing, q)
    flags = False
    diagnostics = ""
    if not hypothesis_ok:
        status = "hypothesis_unmet"
        diagnostics = (
            f"min out-degree {t.min_out_degree()} below {(q - 1) * k - 1}"
        )
    elif len(packing) >= k:
        status = "target_met"
    else:
        status = "maximal_but_short"
        if fallback_used:
            diagnostics = "exact search confirms no larger packing"
            if q >= 11:
                flags = True
                diagnostics += "; would-be counterexample to the degree threshold"
        else:
            diagnostics = "moves stalled and instance too large for exact search"
    return PackReport(packing, status, k, moves, fallback_used, flags, diagnostics)


def _assert_sound(t: Tournament, packing: CyclePacking, q: int) -> None:
    ok, detail = verify_packing(t, packing, q, 0)
    if not ok:
        raise AssertionError(f"internal packing corruption: {detail}")
