import gc
import random
import sys

import pytest

from bruteforce import all_tournaments, brute_max_disjoint, dfs_q_cycles
from conftest import chained_triangles, transitive
from cyclemill import (
    OracleCapError,
    SearchSpec,
    Tournament,
    counterexample_search,
    enumerate_q_cycles,
    is_cycle,
    max_disjoint_q_cycles,
    trn,
    verify_packing,
)
from cyclemill.gen import random_tournament


class TestEnumerate:
    def test_single_triangle(self, triangle):
        cycles, overflow = enumerate_q_cycles(triangle, 3)
        assert cycles == [(0, 1, 2)] and not overflow

    def test_transitive_empty(self):
        for q in (3, 4, 5):
            assert enumerate_q_cycles(transitive(8), q) == ([], False)

    def test_paley_triangle_count(self, paley7):
        cycles, overflow = enumerate_q_cycles(paley7, 3)
        assert not overflow
        assert sorted(cycles) == sorted(dfs_q_cycles(paley7, 3))
        assert len(cycles) == 14

    def test_canonical_no_rotations(self, paley7):
        cycles, _ = enumerate_q_cycles(paley7, 5)
        seen = set()
        for c in cycles:
            assert c[0] == min(c)
            assert is_cycle(paley7, c)
            key = frozenset(c), c
            rotations = {tuple(c[i:] + c[:i]) for i in range(len(c))}
            assert not rotations & seen
            seen |= rotations

    def test_cap_overflow(self, paley7):
        cycles, overflow = enumerate_q_cycles(paley7, 3, cap=5)
        assert overflow and len(cycles) == 5

    def test_path_longer_than_the_recursion_limit(self):
        # transitive but for the arc n-1 -> 0: the first path tried, 0, 1, ...,
        # n-1, is a Hamiltonian cycle, which at cap 0 ends the search at once
        n = sys.getrecursionlimit() + 10
        rows = list(transitive(n).rows)
        rows[0] ^= 1 << n - 1
        rows[n - 1] |= 1
        assert enumerate_q_cycles(Tournament(rows), n, cap=0) == ([], True)


class TestMaxDisjoint:
    def test_paley(self, paley7):
        count, witness = max_disjoint_q_cycles(paley7, 3)
        assert count == 2
        assert verify_packing(paley7, witness, 3, 2) == (True, None)

    def test_transitive(self):
        assert max_disjoint_q_cycles(transitive(10), 3)[0] == 0

    def test_triangle(self, triangle):
        count, witness = max_disjoint_q_cycles(triangle, 3)
        assert count == 1 and witness.cycles == ((0, 1, 2),)

    def test_early_stop_carries_witness(self, paley7):
        count, witness = max_disjoint_q_cycles(paley7, 3, limit=1)
        assert count == 1
        assert verify_packing(paley7, witness, 3, 1) == (True, None)

    def test_cap_error(self, paley7):
        with pytest.raises(OracleCapError):
            max_disjoint_q_cycles(paley7, 3, cycle_cap=5)

    def test_chain_longer_than_the_recursion_limit(self):
        m = sys.getrecursionlimit() + 1
        t = chained_triangles(m)
        count, witness = max_disjoint_q_cycles(t, 3)
        assert count == m
        assert verify_packing(t, witness, 3, m) == (True, None)

    def test_brute_force_parity_random(self):
        rng = random.Random(23)
        for trial in range(60):
            n = rng.randint(4, 8)
            q = rng.choice([3, 4])
            t = random_tournament(n, rng.getrandbits(32))
            count, witness = max_disjoint_q_cycles(t, q)
            assert count == brute_max_disjoint(t, q)
            assert verify_packing(t, witness, q, count) == (True, None)


class TestSearchSpec:
    def test_range_below_q_rejected(self):
        with pytest.raises(ValueError):
            SearchSpec(q=4, k=1, n_range=(3, 5))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SearchSpec(q=3, k=1, n_range=(3, 4), mode="clairvoyant")

    def test_default_floor(self):
        assert SearchSpec(q=5, k=2, n_range=(5, 6)).floor == 7


class TestSearch:
    def test_exhaustive_tiny_no_violators(self):
        # min out-degree 1 forces a triangle in any tournament
        spec = SearchSpec(q=3, k=1, n_range=(3, 5), degree_floor=1)
        report = counterexample_search(spec)
        assert report.violators == []
        assert report.examined == sum(
            1
            for n in (3, 4, 5)
            for t in all_tournaments(n)
            if t.min_out_degree() >= 1
        )

    def test_exhaustive_finds_violators(self):
        # with no degree floor, transitive instances have no triangle at all
        spec = SearchSpec(q=3, k=1, n_range=(3, 3), degree_floor=0)
        report = counterexample_search(spec)
        assert report.examined == 8 and len(report.violators) == 6
        assert all(line.startswith("3 ") for line in report.violators)

    def test_violator_lines_are_trn_rows(self):
        spec = SearchSpec(q=3, k=1, n_range=(3, 3), degree_floor=0)
        report = counterexample_search(spec)
        assert report.violators == [
            "3 000100110",
            "3 010000110",
            "3 011000010",
            "3 000101100",
            "3 001101000",
            "3 011001000",
        ]
        for line in report.violators:
            count, bits_text = line.split(" ")
            n = int(count)
            text = "\n".join([count, *(bits_text[i * n:(i + 1) * n] for i in range(n))]) + "\n"
            t = trn.loads(text)
            assert max_disjoint_q_cycles(t, 3)[0] < 1
            assert trn.dumps(t) == text

    def test_shard_invariance(self):
        spec = SearchSpec(q=3, k=1, n_range=(3, 4), degree_floor=0)
        texts = {counterexample_search(spec, shards=s).to_text() for s in (1, 2, 3, 5)}
        assert len(texts) == 1

    def test_random_mode_deterministic(self):
        spec = SearchSpec(
            q=3, k=1, n_range=(5, 7), mode="random", sample_count=40, seed=99, degree_floor=1
        )
        a = counterexample_search(spec).to_text()
        b = counterexample_search(spec, shards=4).to_text()
        assert a == b
        assert a.endswith("seed=99\n")

    def test_summary_format(self):
        spec = SearchSpec(q=3, k=1, n_range=(3, 3), degree_floor=1)
        text = counterexample_search(spec).to_text()
        assert text == "examined=2 violators=0 seed=0\n"

    def test_random_q4_single_cycle(self):
        # out-degree floor 2 empirically forces a 4-cycle in sampled instances
        spec = SearchSpec(
            q=4, k=1, n_range=(9, 12), mode="random", sample_count=2000, seed=4, degree_floor=2
        )
        report = counterexample_search(spec)
        assert report.violators == [] and report.examined > 1500

    def test_exhaustive_cap(self):
        spec = SearchSpec(q=3, k=1, n_range=(9, 9), degree_floor=0)
        with pytest.raises(ValueError, match="exhaustive"):
            counterexample_search(spec)


class TestNoCyclicGarbage:
    """The oracle's searches must leave nothing for the cycle
    collector, so their cycle lists die with the caller's last reference."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: enumerate_q_cycles(t, 4),
            lambda t: enumerate_q_cycles(t, 4, cap=10),  # the overflow exit
            lambda t: max_disjoint_q_cycles(t, 3),
            lambda t: max_disjoint_q_cycles(t, 3, limit=1),  # the early stop
        ],
        ids=["enumerate", "enumerate-overflow", "max", "max-limit"],
    )
    def test_collector_finds_nothing(self, call):
        t = random_tournament(12, 5)
        gc.collect()
        gc.disable()
        try:
            call(t)
            assert gc.collect() == 0
        finally:
            gc.enable()
