"""Cycle surgery: shrink a cycle by one or two vertices while bounding how many
arcs the removed vertices send back into the original cycle, and the splice
kernels that assemble and trim new cycles."""

from __future__ import annotations

from typing import Sequence

from . import classic
from .core import Cycle, Tournament, bits, is_cycle, mask_of


def _out_into(t: Tournament, v: int, mask: int) -> int:
    return (t.out_mask(v) & mask).bit_count()


def fact1_shrink(t: Tournament, cycle: Cycle) -> tuple[Cycle, int]:
    """Drop one vertex u from an m-cycle (m >= 4) so d+(u, V(C)) <= m - 3.

    First take any (m-1)-cycle of the induced subtournament.  If its leftover
    still beats m-2 cycle vertices, it has a unique dominator on the shorter
    cycle; swapping the leftover in for that dominator's successor yields a
    leftover with one more loss.
    """
    m = len(cycle)
    if m < 4:
        raise ValueError("fact1_shrink needs a cycle of length at least 4")
    if not is_cycle(t, cycle):
        raise ValueError(f"not a valid cycle: {cycle}")
    cmask = mask_of(cycle)
    shorter = classic.cycle_of_length(t, m - 1, cmask)
    u = next(bits(cmask & ~mask_of(shorter)))
    if _out_into(t, u, cmask) <= m - 3:
        return shorter, u
    dominators = t.in_mask(u) & cmask
    assert dominators.bit_count() == 1
    vi = next(bits(dominators))
    i = shorter.index(vi)
    w = shorter[(i + 1) % (m - 1)]
    swapped = tuple(u if x == w else x for x in shorter)
    assert is_cycle(t, swapped) and _out_into(t, w, cmask) <= m - 3
    return swapped, w


def fact2_shrink(t: Tournament, cycle: Cycle) -> tuple[Cycle, int]:
    """Drop one vertex u from an m-cycle (m >= 7) so d+(u, V(C)) <= m - 4.

    Starts from fact1_shrink; when its leftover sits at exactly m - 3 it has
    exactly two dominators on the shorter cycle.  Walking up to three steps
    past either dominator finds a replacement vertex with one more loss, and
    the leftover is re-spliced into that vertex's slot just after the
    dominator.
    """
    m = len(cycle)
    if m < 7:
        raise ValueError("fact2_shrink needs a cycle of length at least 7")
    shorter, u = fact1_shrink(t, cycle)
    cmask = mask_of(cycle)
    if _out_into(t, u, cmask) <= m - 4:
        return shorter, u
    doms = sorted(bits(t.in_mask(u) & cmask))
    assert len(doms) == 2
    k = len(shorter)
    chains = []
    for d in doms:
        i = shorter.index(d)
        part = []
        for step in range(1, k):
            w = shorter[(i + step) % k]
            if w in doms:
                break
            part.append(w)
        chains.append((d, part))
    chains.sort(key=lambda c: (-len(c[1]), c[0]))
    for d, part in chains:
        if len(part) < 2:
            continue
        i = shorter.index(d)
        for step in range(min(3, len(part))):
            w = part[step]
            if _out_into(t, w, cmask) <= m - 4:
                rotated = shorter[i:] + shorter[:i]  # starts at the dominator
                rebuilt = (d, u) + tuple(x for x in rotated[1:] if x != w)
                assert is_cycle(t, rebuilt)
                return rebuilt, w
    raise RuntimeError("no admissible replacement vertex found")


def fact3_double_shrink(t: Tournament, cycle: Cycle) -> tuple[Cycle, tuple[int, int]]:
    """Drop an arc (x, y) from an m-cycle (m >= 7) so d+(y, V(C)) <= m - 4.

    Two successive single-vertex shrinks; the second one falls back to the
    m >= 4 variant when the intermediate cycle is too short, which still meets
    the bound once the removed pair is oriented along its arc.
    """
    m = len(cycle)
    if m < 7:
        raise ValueError("fact3_double_shrink needs a cycle of length at least 7")
    mid, u1 = fact2_shrink(t, cycle)
    if m - 1 >= 7:
        short, u2 = fact2_shrink(t, mid)
    else:
        short, u2 = fact1_shrink(t, mid)
    x, y = (u1, u2) if t.arc(u1, u2) else (u2, u1)
    assert _out_into(t, y, mask_of(cycle)) <= m - 4
    return short, (x, y)


def fact4_low_vertex(t: Tournament, cycle: Cycle, candidates: Sequence[int]) -> int:
    """First of three cycle vertices with d+(., V(C)) <= m - 3 (one always qualifies)."""
    m = len(cycle)
    if m < 4:
        raise ValueError("fact4_low_vertex needs a cycle of length at least 4")
    if len(set(candidates)) != 3:
        raise ValueError("exactly three distinct candidate vertices required")
    if any(v not in cycle for v in candidates):
        raise ValueError("candidates must lie on the cycle")
    cmask = mask_of(cycle)
    for v in candidates:
        if _out_into(t, v, cmask) <= m - 3:
            return v
    raise AssertionError("impossible: some candidate must have two losses on the cycle")


def absorb(t: Tournament, cycle: Cycle, u: int) -> Cycle:
    """Splice an outside vertex with mixed arcs into a cycle, one vertex longer."""
    if not is_cycle(t, cycle):
        raise ValueError(f"not a valid cycle: {cycle}")
    t._check_vertex(u)
    if u in cycle:
        raise ValueError(f"vertex {u} already lies on the cycle")
    cmask = mask_of(cycle)
    if not t.in_mask(u) & cmask:
        raise ValueError(f"vertex {u} dominates the whole cycle")
    if not t.out_mask(u) & cmask:
        raise ValueError(f"vertex {u} is dominated by the whole cycle")
    m = len(cycle)
    for i in range(m):
        if t.arc(cycle[i], u) and t.arc(u, cycle[(i + 1) % m]):
            return cycle[: i + 1] + (u,) + cycle[i + 1 :]
    raise AssertionError("mixed vertex with no insertion point")


def splice_and_trim(
    t: Tournament, entry: int, segment: Sequence[int], exit_vertex: int, q: int
) -> Cycle:
    """Close (exit, segment..., entry) into a cycle via the entry->exit arc, then
    trim to exactly q vertices inside that cycle's vertex set."""
    assembled = (exit_vertex, *segment, entry)
    if len(set(assembled)) != len(assembled):
        raise ValueError("assembled cycle repeats a vertex")
    for a, b in zip(assembled, assembled[1:]):
        if not t.arc(a, b):
            raise ValueError(f"segment arc ({a}, {b}) absent")
    if not t.arc(entry, exit_vertex):
        raise ValueError(f"closing arc ({entry}, {exit_vertex}) absent")
    if len(assembled) < q:
        raise ValueError(f"assembled cycle has {len(assembled)} < {q} vertices")
    if len(assembled) == q:
        return assembled
    return classic.cycle_of_length(t, q, mask_of(assembled))
