import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import all_tournaments, dfs_cycle_lengths, pairwise_validate
from conftest import transitive
from cyclemill import (
    DuplicatePairError,
    MissingPairError,
    SelfLoopError,
    Tournament,
    VertexRangeError,
    build_tournament,
)
from cyclemill.core import bits, mask_of
from cyclemill.gen import random_tournament


class TestBuild:
    def test_transitive_triangle(self):
        t = build_tournament(3, [(0, 1), (1, 2), (0, 2)])
        assert t.arc(0, 1) and t.arc(1, 2) and t.arc(0, 2)
        assert not t.arc(2, 0)

    def test_cyclic_triangle(self):
        t = build_tournament(3, [(0, 1), (1, 2), (2, 0)])
        assert t.arc(2, 0) and not t.arc(0, 2)

    def test_duplicate_pair(self):
        with pytest.raises(DuplicatePairError):
            build_tournament(3, [(0, 1), (1, 0), (1, 2), (0, 2)])

    def test_repeated_arc(self):
        with pytest.raises(DuplicatePairError):
            build_tournament(3, [(0, 1), (0, 1), (1, 2), (0, 2)])

    def test_missing_pair(self):
        with pytest.raises(MissingPairError):
            build_tournament(3, [(0, 1), (1, 2)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_tournament(3, [(0, 0), (0, 1), (1, 2), (0, 2)])

    def test_out_of_range(self):
        with pytest.raises(VertexRangeError):
            build_tournament(3, [(0, 1), (1, 2), (0, 3)])

    def test_vertex_cap(self):
        with pytest.raises(VertexRangeError):
            build_tournament(5000, [])

    @given(st.integers(0, 2**32), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_invariant(self, seed, n):
        t = random_tournament(n, seed)
        assert sum(t.out_degree(v) for v in range(n)) == n * (n - 1) // 2

    @given(st.integers(0, 2**32), st.integers(2, 10), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_arc_order_irrelevant(self, seed, n, rnd):
        t = random_tournament(n, seed)
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j and t.arc(i, j)]
        rnd.shuffle(arcs)
        assert build_tournament(n, arcs) == t


class TestConstructorAgainstPairwiseReference:
    @given(
        st.integers(1, 24),
        st.integers(0, 2**32),
        st.sampled_from(["none", "flip", "set", "clear", "diagonal"]),
        st.integers(0, 23),
        st.integers(0, 23),
    )
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_what_the_reference_accepts(self, n, seed, edit, i, j):
        rows = list(random_tournament(n, seed).rows)
        i, j = i % n, j % n
        if edit == "diagonal":
            rows[i] |= 1 << i
        elif edit != "none" and i != j:
            if edit == "flip":
                rows[i] ^= 1 << j
            elif edit == "set":
                rows[i] |= 1 << j
            else:
                rows[i] &= ~(1 << j)
        cols, fault = pairwise_validate(rows)
        if fault is None:
            assert Tournament(rows).cols == tuple(cols)
        else:
            with pytest.raises(fault[0]):
                Tournament(rows)

    def test_reports_the_faulty_pair(self):
        rows = [0b110, 0b101, 0b000]  # 0 beats 1 and 1 beats 0; 2 loses to both
        assert pairwise_validate(rows) == (None, (DuplicatePairError, 0, 1))
        with pytest.raises(DuplicatePairError, match="between 0 and 1"):
            Tournament(rows)


class TestDegrees:
    def test_transitive_out_degree(self):
        assert transitive(3).out_degree(0) == 2

    def test_cyclic_triangle_degree(self, triangle):
        assert all(triangle.out_degree(v) == 1 for v in range(3))

    def test_paley_regular(self, paley7):
        residues = {1, 2, 4}
        for v in range(7):
            expected = sum(1 for u in range(7) if u != v and (u - v) % 7 in residues)
            assert paley7.out_degree(v) == expected == 3

    def test_min_out_degree(self, paley7, triangle):
        assert transitive(6).min_out_degree() == 0
        assert paley7.min_out_degree() == 3
        assert triangle.min_out_degree() == 1


class TestArcCounts:
    def test_transitive_domination(self):
        t = transitive(4)
        assert t.arcs_between({0, 1}, {2, 3}) == 4
        assert t.arcs_between({2, 3}, {0, 1}) == 0

    def test_paley_cross_count(self, paley7):
        xs, ys = {0, 1, 2}, {3, 4, 5}
        brute = sum(1 for x in xs for y in ys if paley7.arc(x, y))
        assert paley7.arcs_between(xs, ys) == brute == 5

    def test_overlap_rejected(self, paley7):
        with pytest.raises(ValueError):
            paley7.arcs_between({0, 1}, {1, 2})

    def test_dominates(self, triangle):
        t = transitive(4)
        assert t.dominates({0}, {1, 2, 3})
        assert not triangle.dominates({0}, {1, 2})
        assert t.dominates(set(), {1, 2})


class TestInduced:
    def test_transitive_restriction(self):
        sub, label = transitive(5).induced({1, 3, 4})
        assert label == (1, 3, 4)
        assert sub.arc(0, 1) and sub.arc(1, 2) and sub.arc(0, 2)

    def test_paley_triangle(self, paley7):
        sub, label = paley7.induced({0, 1, 3})
        assert label == (0, 1, 3)
        assert sub.arc(0, 1) and sub.arc(1, 2) and sub.arc(2, 0)

    def test_full_set_identity(self, paley7):
        sub, label = paley7.induced(range(7))
        assert sub == paley7 and label == tuple(range(7))

    def test_empty_rejected(self, paley7):
        with pytest.raises(ValueError):
            paley7.induced(set())


class TestStrongComponents:
    def test_transitive_singletons(self):
        assert transitive(4).strong_components() == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]

    def test_triangle_single(self, triangle):
        assert triangle.strong_components() == [frozenset({0, 1, 2})]

    def test_block_construction(self):
        arcs = [(0, 1), (1, 2), (2, 0), (3, 4)]
        arcs += [(c, rest) for c in (0, 1, 2) for rest in (3, 4)]
        t = build_tournament(5, arcs)
        assert t.strong_components() == [frozenset({0, 1, 2}), frozenset({3}), frozenset({4})]

    def test_partition_and_domination(self):
        for seed in range(20):
            t = random_tournament(9, seed)
            comps = t.strong_components()
            assert sorted(v for c in comps for v in c) == list(range(9))
            for a, b in zip(comps, comps[1:]):
                assert t.dominates(a, b)

    def test_reachability_parity_random(self):
        from bruteforce import reachability_components

        for seed in range(40):
            t = random_tournament(4 + seed % 30, seed)
            assert set(t.strong_components()) == set(reachability_components(t))

    def test_reachability_parity_exhaustive(self):
        from bruteforce import reachability_components

        for t in all_tournaments(5):
            assert set(t.strong_components()) == set(reachability_components(t))


class TestQCycleFree:
    def test_transitive_free(self):
        assert transitive(8).is_q_cycle_free(3)

    def test_paley_has_7_cycle(self, paley7):
        assert not paley7.is_q_cycle_free(7)

    def test_small_cycle(self, triangle):
        assert triangle.is_q_cycle_free(4)
        assert not triangle.is_q_cycle_free(3)

    def test_q_below_3_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.is_q_cycle_free(2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_exhaustive_agreement_small(self, n):
        for t in all_tournaments(n):
            lengths = dfs_cycle_lengths(t)
            top = max(len(c) for c in t.strong_components())
            assert lengths == set(range(3, top + 1))
            for q in range(3, n + 1):
                assert t.is_q_cycle_free(q) == (q not in lengths)

    def test_no_sink_forces_triangle(self):
        for seed in range(300):
            t = random_tournament(3 + seed % 10, seed)
            if t.min_out_degree() >= 1:
                assert not t.is_q_cycle_free(3)


def test_bits_and_mask_roundtrip():
    assert list(bits(mask_of([5, 1, 9]))) == [1, 5, 9]
