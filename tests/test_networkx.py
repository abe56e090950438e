"""Kernels against networkx, an independent implementation (test-only)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemill import Tournament, enumerate_q_cycles
from cyclemill.core import bits

nx = pytest.importorskip("networkx")


@st.composite
def tournaments(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pattern = draw(st.integers(0, (1 << len(pairs)) - 1))
    rows = [0] * n
    for b, (i, j) in enumerate(pairs):
        if pattern >> b & 1:
            rows[i] |= 1 << j
        else:
            rows[j] |= 1 << i
    return Tournament(rows)


def digraph(t: Tournament, mask: int):
    g = nx.DiGraph()
    g.add_nodes_from(bits(mask))
    g.add_edges_from((u, v) for u in bits(mask) for v in bits(t.rows[u] & mask))
    return g


def lowest_first(cycle):
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


@given(tournaments(min_n=3), st.sampled_from([3, 4, 5]))
@settings(max_examples=150, deadline=None)
def test_enumerate_q_cycles_matches_simple_cycles(t, q):
    cycles, overflow = enumerate_q_cycles(t, q)
    assert not overflow
    expected = {
        lowest_first(c)
        for c in nx.simple_cycles(digraph(t, t.full_mask), length_bound=q)
        if len(c) == q
    }
    assert len(cycles) == len(expected)
    assert set(cycles) == expected


@given(tournaments(), st.data())
@settings(max_examples=150, deadline=None)
def test_strong_components_match_networkx(t, data):
    mask = data.draw(st.integers(1, t.full_mask))
    comps = t.strong_components(mask)
    assert set(comps) == set(map(frozenset, nx.strongly_connected_components(digraph(t, mask))))
    for i, upper in enumerate(comps):  # condensation order: each dominates all later
        for lower in comps[i + 1:]:
            assert t.dominates(upper, lower)
