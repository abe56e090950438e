"""Golden ``pack`` reports: the exact ``PackReport.to_text()`` bytes on a fixed
corpus, compared byte for byte.

The corpus covers every planted move kind at q in {7, 9, 11}, a seeded sample
of the regular 7-vertex tournaments, the acceptance-criterion-1 instances and
dense degree-floored instances at n=161.  Since ``pack`` finds most planted
targets by greedy alone, the ``moves`` file also records what each move
returns when called directly on every planted packing, and the ``oracle`` file
records the exact oracle alone: ``enumerate_q_cycles`` (count, digest and end
cycles, at the default cap and at one that overflows) and the count and witness
of ``max_disjoint_q_cycles`` at each ``limit``.  A refactor that changes any
cycle, tie-break or move log shows up here.  Regenerate the files
only when a change of output is intended::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

from cyclemill import (
    grow_tail,
    enumerate_q_cycles,
    max_disjoint_q_cycles,
    min_degree_tournament,
    move_absorb,
    move_three_for_two,
    move_two_for_one,
    pack,
    partition_remainder,
    planted_move_instance,
    q_cycle_free_tournament,
    random_tournament,
)
from cyclemill.gen import PLANTED_KINDS

GOLDEN = Path(__file__).parent / "golden"


def planted_instances():
    for q in (7, 9, 11):
        for kind in PLANTED_KINDS:
            for seed in range(3):
                try:
                    t, packing, _ = planted_move_instance(kind, q, seed)
                except ValueError:  # the kind is not defined at this q
                    break
                yield f"{kind} q={q} seed={seed}", t, packing


def planted_cases():
    for name, t, packing in planted_instances():
        yield name, t, packing.q, len(packing) + 1


def regular7_cases():
    rng = random.Random(2640)
    found = 0
    while found < 24:
        seed = rng.getrandbits(63)
        t = random_tournament(7, seed)
        if t.min_out_degree() == 3:
            found += 1
            yield f"regular7 seed={seed}", t, 3, 2


def criterion1_cases():
    """The instances of acceptance criterion 1."""
    for i in range(1000):
        k = 1 + i % 3
        floor = 2 * k - 1
        n_lo = max(7, 2 * floor + 1)
        n = n_lo + i % (21 - n_lo + 1)
        yield f"criterion1 i={i} n={n} k={k}", min_degree_tournament(n, floor, seed=i), 3, k


def dense_cases():
    n, k = 161, 40
    for seed in range(3):
        yield f"dense n={n} k={k} seed={seed}", min_degree_tournament(n, 2 * k - 1, seed), 3, k


def render_pack(cases) -> str:
    return "".join(f"## {name}\n" + pack(t, q, k).to_text() for name, t, q, k in cases)


def render_moves() -> str:
    out = []
    for name, t, packing in planted_instances():
        partition = partition_remainder(t, packing)
        out.append(f"## {name}\npath {partition.path}\n")
        for move in (move_absorb, move_two_for_one, move_three_for_two):
            result = move(t, packing, partition)
            out.append(f"{move.__name__} {result and result.cycles}\n")
        try:
            grown = grow_tail(t, packing, partition.path)
        except ValueError as exc:  # the remainder already has a q-cycle
            grown = f"ValueError: {exc}"
        if isinstance(grown, tuple):
            grown = (grown[0].cycles,) + grown[1:]
        out.append(f"grow_tail {grown}\n")
    return "".join(out)


def oracle_instances():
    for n in range(6, 14):
        for seed in range(2):
            yield f"random n={n} seed={seed}", random_tournament(n, 100 * n + seed)
        free_q = 4 + n % 4
        yield f"q_cycle_free n={n} q={free_q} seed={n}", q_cycle_free_tournament(n, free_q, n)


def render_cycles(label: str, cycles, overflow) -> str:
    digest = hashlib.sha256(repr(cycles).encode()).hexdigest()[:16]
    ends = f" first={cycles[0]} last={cycles[-1]}" if cycles else ""
    return f"{label} count={len(cycles)} overflow={overflow} sha={digest}{ends}\n"


def render_oracle() -> str:
    out = []
    for name, t in oracle_instances():
        for q in (3, 4, 5, 6):
            out.append(f"## {name} q={q}\n")
            cycles, overflow = enumerate_q_cycles(t, q)
            out.append(render_cycles("enumerate", cycles, overflow))
            if cycles:
                cap = len(cycles) // 2
                out.append(render_cycles(f"enumerate cap={cap}", *enumerate_q_cycles(t, q, cap)))
            for limit in (None, 1, 2):
                count, witness = max_disjoint_q_cycles(t, q, limit)
                out.append(f"max limit={limit} {count} {witness.cycles}\n")
    return "".join(out)


GROUPS = {
    "planted": lambda: render_pack(planted_cases()),
    "regular7": lambda: render_pack(regular7_cases()),
    "criterion1": lambda: render_pack(criterion1_cases()),
    "dense": lambda: render_pack(dense_cases()),
    "moves": render_moves,
    "oracle": render_oracle,
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_reports_match_golden(group):
    assert GROUPS[group]() == (GOLDEN / f"{group}.txt").read_text(encoding="ascii")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for group in sys.argv[1:] or GROUPS:
        (GOLDEN / f"{group}.txt").write_text(GROUPS[group](), encoding="ascii")
