"""Deterministic coverage of every branch of the tail-growth case ladder."""

import pytest

import tailcases
from cyclemill import grow_tail, is_cycle, partition_remainder, verify_packing
from cyclemill.core import bits, is_path

Q = 9


def tail_block_size(t, path):
    if not path:
        return 0
    sub, label = t.induced(set(path))
    comps = [frozenset(label[v] for v in c) for c in sub.strong_components()]
    return len(next(c for c in comps if path[-1] in c))


def run_case(t, packing, expected_tail):
    part = partition_remainder(t, packing)
    old_tail = tail_block_size(t, part.path)
    result = grow_tail(t, packing, part.path)
    assert result is not None, "expected the move to fire"
    new_packing, tail, new_path = result
    assert len(tail) == expected_tail
    assert len(tail) > old_tail
    assert is_cycle(t, tail)
    assert is_path(t, new_path)
    assert new_path[-1] in tail
    assert verify_packing(t, new_packing, packing.q, len(packing.cycles)) == (True, None)
    free = t.full_mask & ~new_packing.vertex_mask()
    assert set(new_path) == set(bits(free))
    assert set(tail) <= set(new_path)
    assert tail_block_size(t, new_path) >= len(tail)


@pytest.mark.parametrize("seed", range(5))
def test_tail_from_two_loose_vertices(seed):
    run_case(*tailcases.build_nothing_case(Q, seed))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("reaches", [True, False])
def test_pretail_block_one_short_of_q(seed, reaches):
    run_case(*tailcases.build_pretail_full_block(Q, seed, x_reaches_block=reaches))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("block_size", [3, 5])
def test_pretail_leftover_arc_joins(seed, block_size):
    run_case(*tailcases.build_pretail_leftover_arc(Q, block_size, seed))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("reaches", [True, False])
def test_pretail_absorb_last_vertex(seed, reaches):
    run_case(*tailcases.build_pretail_absorb(Q, 4, seed, z_reaches_block=reaches))


@pytest.mark.parametrize("seed", range(5))
def test_pretail_detached_leftovers(seed):
    run_case(*tailcases.build_pretail_detached(Q, 4, seed))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("block_size", [4, 6])
def test_existing_tail_grows_by_one(seed, block_size):
    run_case(*tailcases.build_existing_with_hit(Q, block_size, seed))


@pytest.mark.parametrize("seed", range(5))
def test_triangle_tail_single_hit(seed):
    run_case(*tailcases.build_triangle_single_hit(Q, seed))
