"""Acceptance suite: every criterion at its stated scale and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import time

from bruteforce import all_tournaments, brute_max_disjoint, is_strong_brute
from cyclemill import (
    SearchSpec,
    counterexample_search,
    cycle_through_vertex,
    fact1_shrink,
    fact2_shrink,
    fact3_double_shrink,
    grow_tail,
    hamiltonian_cycle,
    is_cycle,
    max_disjoint_q_cycles,
    min_degree_tournament,
    move_absorb,
    move_three_for_two,
    move_two_for_one,
    pack,
    partition_remainder,
    planted_move_instance,
    verify_packing,
)
from cyclemill.claims import random_strong_tournament, run_claim_check
from cyclemill.core import bits, is_path, mask_of


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_triangle_packing_threshold():
    """pack(T, 3, k) reaches k triangles whenever the out-degree floor holds."""
    start = time.time()
    successes = 0
    trials = 0
    for i in range(1000):
        k = 1 + i % 3
        floor = 2 * k - 1
        n_lo = max(7, 2 * floor + 1)
        n = n_lo + i % (21 - n_lo + 1)
        t = min_degree_tournament(n, floor, seed=i)
        result = pack(t, 3, k)
        trials += 1
        ok, _ = verify_packing(t, result.packing, 3, k)
        if result.status == "target_met" and ok:
            successes += 1
    elapsed = time.time() - start
    report(
        1,
        successes == trials == 1000 and elapsed < 60,
        f"{successes}/{trials} packings met k at q=3 in {elapsed:.1f}s",
    )


def test_criterion_2_general_floor_bound():
    """Floor (q-1)k-1 yields at least ceil(k-1-(k-2)/q) disjoint q-cycles."""
    successes = 0
    trials = 0
    for q, k in ((4, 2), (5, 2), (4, 3)):
        floor = (q - 1) * k - 1
        bound = math.ceil(k - 1 - (k - 2) / q)
        for i in range(200):
            n = 2 * floor + 1 + i % 4
            t = min_degree_tournament(n, floor, seed=1000 * q + 10 * k + i)
            result = pack(t, q, k)
            trials += 1
            ok, _ = verify_packing(t, result.packing, q, 0)
            if ok and len(result.packing) >= bound:
                successes += 1
    report(2, successes == trials == 600, f"{successes}/{trials} met the size bound")


def test_criterion_3_oracle_ground_truth():
    """Branch-and-bound agrees with exhaustive set packing on all 6-vertex instances."""
    start = time.time()
    disagreements = 0
    count = 0
    for t in all_tournaments(6):
        count += 1
        found, witness = max_disjoint_q_cycles(t, 3)
        if found != brute_max_disjoint(t, 3):
            disagreements += 1
        elif verify_packing(t, witness, 3, found) != (True, None):
            disagreements += 1
    elapsed = time.time() - start
    report(
        3,
        count == 32768 and disagreements == 0 and elapsed < 300,
        f"{count} instances, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_4_vertex_pancyclic_suite():
    """Every strong tournament on up to 6 vertices: a cycle of every length
    through every vertex."""
    failures = 0
    checked = 0
    for n in (3, 4, 5, 6):
        for t in all_tournaments(n):
            if len(t.strong_components()) != 1:
                continue
            for v in range(n):
                for length in range(3, n + 1):
                    checked += 1
                    cycle = cycle_through_vertex(t, v, length)
                    if len(cycle) != length or v not in cycle or not is_cycle(t, cycle):
                        failures += 1
    report(4, failures == 0 and checked > 0, f"{checked} cycles built, {failures} failures")


def test_criterion_5_shrink_degree_bounds():
    """10,000 strong instances: both single shrinks and the double shrink meet
    their leftover degree bounds."""
    violations = 0
    for i in range(10_000):
        n = 7 + i % 3
        t = random_strong_tournament(n, seed=i)
        cycle = hamiltonian_cycle(t)
        cmask = mask_of(cycle)
        s1, u1 = fact1_shrink(t, cycle)
        if (t.out_mask(u1) & cmask).bit_count() > n - 3 or not is_cycle(t, s1):
            violations += 1
        s2, u2 = fact2_shrink(t, cycle)
        if (t.out_mask(u2) & cmask).bit_count() > n - 4 or not is_cycle(t, s2):
            violations += 1
        s3, (x, y) = fact3_double_shrink(t, cycle)
        if (
            not t.arc(x, y)
            or (t.out_mask(y) & cmask).bit_count() > n - 4
            or not is_cycle(t, s3)
        ):
            violations += 1
    report(5, violations == 0, f"10000 instances x 3 shrinks, {violations} violations")


def test_criterion_6_matching_thresholds():
    """Arc-count thresholds force the promised matchings and dominating
    vertices; matching/cover duality on every instance."""
    total_violations = 0
    for q in (9, 10):
        rep = run_claim_check("claim1", trials=1000, seed=60 + q, q=q)
        total_violations += rep.violations
    report(6, total_violations == 0, f"2000 threshold trials, {total_violations} violations")


def test_criterion_7_planted_move_coverage():
    """Each planted instance kind fires its move and verifies, 100 seeds each."""
    movers = {
        "claim2": move_absorb,
        "claim4": move_two_for_one,
        "claim5": move_three_for_two,
    }
    smallest_q = {"claim2": 3, "claim4": 9, "claim5": 9, "tail_case_a": 9, "tail_case_b": 9}
    failures = []
    for kind, q in smallest_q.items():
        for seed in range(100):
            t, packing, expected = planted_move_instance(kind, q, seed)
            partition = partition_remainder(t, packing)
            if kind in movers:
                result = movers[kind](t, packing, partition)
                if result is None or verify_packing(t, result, q, len(packing) + 1) != (
                    True,
                    None,
                ):
                    failures.append((kind, seed))
            else:
                old = max(
                    len(c) for c in t.induced(set(partition.path))[0].strong_components()
                )
                grown = grow_tail(t, packing, partition.path)
                if grown is None:
                    failures.append((kind, seed))
                    continue
                new_packing, tail, new_path = grown
                free = t.full_mask & ~new_packing.vertex_mask()
                good = (
                    len(tail) > old
                    and is_cycle(t, tail)
                    and is_path(t, new_path)
                    and new_path
                    and new_path[-1] in tail
                    and set(new_path) == set(bits(free))
                    and verify_packing(t, new_packing, q, len(packing)) == (True, None)
                )
                if not good:
                    failures.append((kind, seed))
    report(7, not failures, f"500 planted instances, failures: {failures[:5]}")


def test_criterion_8_search_smoke():
    """Exhaustive scan at q=3, k=2, n=7 under out-degree floor 3: no violators,
    and byte-identical reports across repeated sharded runs."""
    spec = SearchSpec(q=3, k=2, n_range=(7, 7), degree_floor=3)
    first = counterexample_search(spec, shards=4).to_text()
    second = counterexample_search(spec, shards=4).to_text()
    ok = (
        first == second
        and first.endswith("violators=0 seed=0\n")
        and "examined=2640" in first
    )
    report(8, ok, f"report: {first.strip().splitlines()[-1]!r}, deterministic: {first == second}")


def test_criterion_9_eleven_cycles():
    """q=11, k=1 stand-in for the large-q regime: an 11-cycle is always packed."""
    successes = 0
    for seed in range(50):
        t = min_degree_tournament(23, 10, seed=9000 + seed)
        result = pack(t, 11, 1)
        ok, _ = verify_packing(t, result.packing, 11, 1)
        if result.status == "target_met" and ok:
            successes += 1
    report(9, successes == 50, f"{successes}/50 instances packed an 11-cycle")
