import pytest

from bruteforce import brute_max_disjoint
from conftest import transitive
from cyclemill import (
    CyclePacking,
    PackBudget,
    build_tournament,
    grow_tail,
    greedy_maximal_packing,
    is_cycle,
    min_degree_tournament,
    move_absorb,
    move_three_for_two,
    move_two_for_one,
    pack,
    partition_remainder,
    planted_move_instance,
    q_cycle_free_tournament,
    random_tournament,
    select_receptive_cycle,
    verify_packing,
)
from cyclemill.core import bits, is_path


class TestGreedy:
    def test_transitive_empty(self):
        packing = greedy_maximal_packing(transitive(10), 3)
        assert packing.cycles == ()

    def test_triangle(self, triangle):
        packing = greedy_maximal_packing(triangle, 3)
        assert packing.cycles == ((0, 1, 2),)

    def test_paley_two_triangles(self, paley7):
        packing = greedy_maximal_packing(paley7, 3)
        assert len(packing) == 2
        assert verify_packing(paley7, packing, 3, 2) == (True, None)

    def test_remainder_free(self):
        for seed in range(30):
            t = random_tournament(13, seed)
            packing = greedy_maximal_packing(t, 3)
            free = t.full_mask & ~packing.vertex_mask()
            if free.bit_count() >= 3:
                sub, _ = t.induced(bits(free))
                assert sub.is_q_cycle_free(3)


class TestPartition:
    def test_transitive_sizes_q10(self):
        q = 10
        t = transitive(4 * q - 5)
        part = partition_remainder(t, CyclePacking(q, ()))
        assert len(part.u1) == q + 1
        assert len(part.s) == 3 * q - 6
        assert part.u2 == frozenset()
        assert not part.degenerate
        assert part.path == tuple(range(4 * q - 5))

    def test_degenerate_flag(self):
        part = partition_remainder(transitive(6), CyclePacking(4, ()))
        assert part.degenerate
        assert len(part.u1) == 5 and len(part.s) == 1 and not part.u2

    def test_block_remainder(self):
        t = q_cycle_free_tournament(26, 5, 8)
        part = partition_remainder(t, CyclePacking(5, ()))
        assert is_path(t, part.path)
        assert len(part.u1) == 6 and len(part.s) == 9
        assert part.u1 | part.s | part.u2 == frozenset(range(26))

    def test_positions(self):
        part = partition_remainder(transitive(10), CyclePacking(3, ()))
        assert part.at_position(1) == part.path[-1]
        assert part.position_of(part.path[0]) == 10


class TestSelectReceptive:
    def test_dominated_choice(self):
        # 3-cycles {3,4,5} and {6,7,8}; the probe {0,1,2} dominates the first
        arcs = [(3, 4), (4, 5), (5, 3), (6, 7), (7, 8), (8, 6)]
        arcs += [(p, c) for p in (0, 1, 2) for c in (3, 4, 5)]
        arcs += [(c, p) for p in (0, 1, 2) for c in (6, 7, 8)]
        arcs += [(0, 1), (1, 2), (0, 2)]
        arcs += [(a, b) for a in (3, 4, 5) for b in (6, 7, 8)]
        t = build_tournament(9, arcs)
        packing = CyclePacking(3, ((3, 4, 5), (6, 7, 8)))
        assert select_receptive_cycle(t, {0, 1, 2}, packing) == (3, 4, 5)

    def test_tie_goes_to_first(self, paley7):
        packing = CyclePacking(3, ((0, 1, 3), (2, 4, 5)))
        f1 = {6}
        first = select_receptive_cycle(paley7, f1, packing)
        a = paley7.arcs_between(f1, {0, 1, 3})
        b = paley7.arcs_between(f1, {2, 4, 5})
        expected = (0, 1, 3) if a >= b else (2, 4, 5)
        assert first == expected

    def test_argmax_random(self):
        for seed in range(10):
            t = random_tournament(12, seed)
            packing = greedy_maximal_packing(t, 3)
            if len(packing) < 2:
                continue
            free = [v for v in range(12) if not packing.vertex_mask() >> v & 1]
            if not free:
                continue
            chosen = select_receptive_cycle(t, free, packing)
            counts = [t.arcs_between(free, set(c)) for c in packing.cycles]
            assert t.arcs_between(free, set(chosen)) == max(counts)


class TestVerifyPacking:
    def test_valid(self, paley7):
        packing = CyclePacking(3, ((0, 1, 3), (2, 4, 5)))
        assert verify_packing(paley7, packing, 3, 2) == (True, None)

    def test_shared_vertex_named(self, paley7):
        packing = CyclePacking(3, ((0, 1, 3), (3, 4, 6)))
        ok, detail = verify_packing(paley7, packing, 3, 2)
        assert not ok and "vertex 3" in detail

    def test_non_arc_named(self, paley7):
        packing = CyclePacking(3, ((0, 1, 4),))
        ok, detail = verify_packing(paley7, packing, 3, 1)
        assert not ok and "(1, 4)" in detail

    def test_count_shortfall(self, paley7):
        packing = CyclePacking(3, ((0, 1, 3),))
        ok, detail = verify_packing(paley7, packing, 3, 2)
        assert not ok and "need 2" in detail

    def test_repeat_and_range_and_length(self, paley7):
        ok, detail = verify_packing(paley7, CyclePacking(3, ((0, 1, 1),)), 3, 0)
        assert not ok and "repeats" in detail
        ok, detail = verify_packing(paley7, CyclePacking(3, ((0, 1, 9),)), 3, 0)
        assert not ok and "out of range" in detail
        ok, detail = verify_packing(paley7, CyclePacking(3, ((0, 1, 3, 5),)), 3, 0)
        assert not ok and "length" in detail
        ok, detail = verify_packing(paley7, CyclePacking(4, ()), 3, 0)
        assert not ok and "3" in detail


class TestMoves:
    def test_absorb_planted(self):
        t, packing, _ = planted_move_instance("claim2", 3, 5)
        part = partition_remainder(t, packing)
        result = move_absorb(t, packing, part)
        assert result is not None and len(result) == 2
        assert verify_packing(t, result, 3, 2) == (True, None)

    def test_absorb_none_on_transitive_remainder(self):
        # a lone triangle atop a transitive tail: nothing to absorb
        arcs = [(0, 1), (1, 2), (2, 0)]
        arcs += [(c, v) for c in (0, 1, 2) for v in (3, 4, 5)]
        arcs += [(3, 4), (3, 5), (4, 5)]
        t = build_tournament(6, arcs)
        packing = CyclePacking(3, ((0, 1, 2),))
        part = partition_remainder(t, packing)
        assert move_absorb(t, packing, part) is None

    def test_two_for_one_planted(self):
        t, packing, _ = planted_move_instance("claim4", 9, 5)
        part = partition_remainder(t, packing)
        result = move_two_for_one(t, packing, part)
        assert result is not None and len(result) == 2
        assert verify_packing(t, result, 9, 2) == (True, None)

    def test_two_for_one_requires_matchings(self):
        # no arcs from the cycle into the path: the 2-matching cannot exist
        q = 9
        arcs = [(i, (i + 1) % q) for i in range(q)]
        arcs += [(i, j) for i in range(q) for j in range(i + 2, q) if (i, j) != (0, q - 1)]
        t_arcs = list(arcs)
        n = q + 4 * q - 2
        t_arcs += [(i, j) for i in range(q, n) for j in range(i + 1, n)]
        t_arcs += [(p, c) for p in range(q, n) for c in range(q)]
        t = build_tournament(n, t_arcs)
        packing = CyclePacking(q, (tuple(range(q)),))
        part = partition_remainder(t, packing)
        assert move_two_for_one(t, packing, part) is None

    def test_three_for_two_planted(self):
        t, packing, _ = planted_move_instance("claim5", 9, 5)
        part = partition_remainder(t, packing)
        result = move_three_for_two(t, packing, part)
        assert result is not None and len(result) == 3
        assert verify_packing(t, result, 9, 3) == (True, None)

    def test_three_for_two_needs_cross_arcs(self):
        t, packing, _ = planted_move_instance("claim4", 9, 5)
        part = partition_remainder(t, packing)
        # only one cycle: no pair (i, j) exists at all
        assert move_three_for_two(t, packing, part) is None


class TestMoveHypothesisGates:
    def test_paley_single_triangle_never_maximal(self, paley7):
        # every triangle of Paley 7 leaves another triangle uncovered, so a
        # one-triangle family is never maximal and greedy always reaches two
        from cyclemill import enumerate_q_cycles

        triangles, _ = enumerate_q_cycles(paley7, 3)
        assert len(triangles) == 14
        for tri in triangles:
            rest = set(range(7)) - set(tri)
            sub, _ = paley7.induced(rest)
            assert not sub.is_q_cycle_free(3)

    def test_two_for_one_blocked_without_q_matching(self):
        # the path tail sends nothing into the cycle: no q-matching exists
        q = 9
        n = q + 4 * q - 2
        arcs = [(i, (i + 1) % q) for i in range(q)]
        arcs += [(i, j) for i in range(q) for j in range(i + 2, q) if (i, j) != (0, q - 1)]
        arcs += [(i, j) for i in range(q, n) for j in range(i + 1, n)]
        arcs += [(c, p) for p in range(q, n) for c in range(q)]
        t = build_tournament(n, arcs)
        packing = CyclePacking(q, (tuple(range(q)),))
        part = partition_remainder(t, packing)
        assert move_two_for_one(t, packing, part) is None

    def test_three_for_two_blocked_by_arc_threshold(self):
        # both matchings exist but the two cycles exchange too few arcs
        q = 9
        r = 4 * q - 1
        n = 2 * q + r
        arcs = []
        for base in (0, q):
            arcs += [(base + i, base + (i + 1) % q) for i in range(q)]
            arcs += [
                (base + i, base + j)
                for i in range(q)
                for j in range(i + 2, q)
                if (i, j) != (0, q - 1)
            ]
        threshold = q * q - q + 3
        cross = [(a, b) for a in range(q) for b in range(q, 2 * q)]
        arcs += cross[: threshold - 1]
        arcs += [(b, a) for a, b in cross[threshold - 1:]]
        arcs += [(i, j) for i in range(2 * q, n) for j in range(i + 1, n)]
        for pos in range(1, q + 1):
            arcs.append((n - pos, pos - 1))
        for off in range(3):
            arcs.append((q + off, 2 * q + off))
        covered = set(arcs)
        for a in range(2 * q):
            for p in range(2 * q, n):
                if (a, p) not in covered and (p, a) not in covered:
                    arcs.append((p, a))
        t = build_tournament(n, arcs)
        packing = CyclePacking(q, (tuple(range(q)), tuple(range(q, 2 * q))))
        part = partition_remainder(t, packing)
        assert t.arcs_between(set(range(q)), set(range(q, 2 * q))) == threshold - 1
        assert move_three_for_two(t, packing, part) is None


class TestGrowTail:
    def test_planted_case_a(self):
        t, packing, _ = planted_move_instance("tail_case_a", 9, 7)
        part = partition_remainder(t, packing)
        old = max(len(c) for c in t.induced(set(part.path))[0].strong_components())
        new_packing, tail, path = grow_tail(t, packing, part.path)
        assert len(tail) > old
        assert is_cycle(t, tail) and is_path(t, path)
        assert path[-1] in tail
        assert verify_packing(t, new_packing, 9, 1) == (True, None)
        free = t.full_mask & ~new_packing.vertex_mask()
        assert set(path) == set(bits(free))

    def test_planted_case_b(self):
        t, packing, _ = planted_move_instance("tail_case_b", 9, 7)
        part = partition_remainder(t, packing)
        new_packing, tail, path = grow_tail(t, packing, part.path)
        assert len(tail) in (4, 5)
        assert path[-1] in tail and is_cycle(t, tail)

    def test_precondition_error(self, paley7):
        packing = CyclePacking(3, ())
        path = tuple(range(7))
        with pytest.raises(ValueError):
            grow_tail(paley7, packing, path)

    def test_bad_path_rejected(self):
        t, packing, _ = planted_move_instance("tail_case_b", 9, 7)
        with pytest.raises(ValueError):
            grow_tail(t, packing, (0, 1, 2))

    def test_small_q_opts_out(self, paley7):
        packing = CyclePacking(3, ((0, 1, 3),))
        part = partition_remainder(paley7, packing)
        if paley7.induced(set(part.path))[0].is_q_cycle_free(3):
            assert grow_tail(paley7, packing, part.path) is None

    def test_tail_at_q_minus_1_enables_harvest(self):
        # tail block one below q: growth pushes it to q or beyond, and the
        # greedy pass then harvests an extra cycle from the remainder
        from cyclemill.gen import _plant_tail

        q = 9
        t, packing, _ = _plant_tail(q, 11, block_size=q - 1)
        part = partition_remainder(t, packing)
        new_packing, tail, _ = grow_tail(t, packing, part.path)
        assert len(tail) >= q
        harvested = greedy_maximal_packing(t, q, new_packing.cycles)
        assert len(harvested) == len(packing) + 1
        assert verify_packing(t, harvested, q, 2) == (True, None)


class TestPack:
    def test_paley_two_triangles(self, paley7):
        report = pack(paley7, 3, 2)
        assert report.status == "target_met"
        assert verify_packing(paley7, report.packing, 3, 2) == (True, None)

    def test_single_cycle_when_no_sink(self):
        for seed in range(20):
            t = random_tournament(6, seed)
            if t.min_out_degree() >= 1:
                report = pack(t, 3, 1)
                assert report.status == "target_met"

    def test_theorem_floor_q4(self):
        # degree floor (q-1)k-1 guarantees ceil(k-1-(k-2)/q) disjoint cycles
        from cyclemill import min_degree_tournament

        t = min_degree_tournament(25, 11, 3)
        report = pack(t, 4, 3)
        assert len(report.packing) >= 2

    def test_hypothesis_unmet(self):
        report = pack(transitive(6), 3, 2)
        assert report.status == "hypothesis_unmet"
        assert report.packing.cycles == ()

    def test_short_with_weak_hypothesis(self, triangle):
        report = pack(triangle, 3, 2)  # min out-degree 1 < 3: hypothesis unmet
        assert report.status == "hypothesis_unmet"
        assert len(report.packing) == 1

    def test_oracle_agreement_small(self):
        for seed in range(40):
            t = random_tournament(8 + seed % 2, seed)
            report = pack(t, 3, 3)
            true_max = brute_max_disjoint(t, 3)
            assert len(report.packing) <= true_max
            if report.fallback_used:
                assert len(report.packing) == min(true_max, 3)

    def test_moves_monotone(self, paley7):
        report = pack(paley7, 3, 2)
        for name, before, after in report.moves_applied:
            assert after >= before

    def test_report_text(self, paley7):
        text = pack(paley7, 3, 2).to_text()
        lines = text.splitlines()
        assert lines[0] == "status=target_met"
        assert lines[1] == "q=3" and lines[2] == "k=2"
        assert sum(1 for line in lines if line and line[0].isdigit()) == 2
        assert any(line.startswith("MOVE greedy") for line in lines)

    def test_budget_respected(self, paley7):
        report = pack(paley7, 3, 2, PackBudget(max_moves=0))
        assert report.status in ("target_met", "maximal_but_short")

    def test_validation(self, paley7):
        with pytest.raises(ValueError):
            pack(paley7, 2, 1)
        with pytest.raises(ValueError):
            pack(paley7, 3, 0)

    def test_maximal_but_short_when_oracle_ineligible(self):
        # hypothesis met (floor 5 for q=3, k=3) but greedy stops early and the
        # budget rules out both moves and the exact search
        t = next(
            t
            for seed in range(200)
            for t in [min_degree_tournament(13, 5, seed)]
            if len(greedy_maximal_packing(t, 3)) < 3
        )
        report = pack(t, 3, 3, PackBudget(max_moves=0, oracle_cycle_cap=1))
        assert report.status == "maximal_but_short"
        assert not report.fallback_used
        assert "too large" in report.diagnostics

    def test_fallback_on_weak_hypothesis(self, paley7):
        report = pack(paley7, 3, 3)  # only two disjoint triangles exist
        assert report.status == "hypothesis_unmet"
        assert report.fallback_used and len(report.packing) == 2
        assert not report.flags_counterexample

    def test_deterministic(self, paley7):
        rebuilt = build_tournament(
            7, [(i, j) for i in range(7) for j in range(7) if i != j and paley7.arc(i, j)]
        )
        a = pack(paley7, 3, 2)
        b = pack(rebuilt, 3, 2)
        assert a.packing == b.packing and a.moves_applied == b.moves_applied

    def test_empty_remainder_partition(self, paley7):
        report = pack(paley7, 3, 2)
        leftover = 7 - 3 * len(report.packing)
        part = partition_remainder(paley7, report.packing)
        assert len(part.path) == leftover

    def test_move_rescues_stuck_greedy(self):
        # seed found by search: greedy stalls below k, the absorb move does not
        t = min_degree_tournament(11, 5, 87)
        assert len(greedy_maximal_packing(t, 3)) < 3
        report = pack(t, 3, 3, PackBudget(oracle_cycle_cap=0))
        assert report.status == "target_met"
        assert any(name == "absorb" for name, _, _ in report.moves_applied)
        assert verify_packing(t, report.packing, 3, 3) == (True, None)
