"""Randomized property suites behind the claim-check command: degree bounds of
the cycle shrinks, the arc-count matching thresholds, and matching/cover
duality."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import surgery
from .classic import hamiltonian_cycle
from .core import Tournament, is_cycle, mask_of
from .gen import derive_seed, random_tournament
from .matching import dominating_vertices, max_matching_with_cover

CLAIM_IDS = ("fact1", "fact2", "fact3", "fact4", "claim1", "konig")


@dataclass
class ClaimCheckReport:
    claim_id: str
    trials: int
    violations: int = 0
    details: list[str] = field(default_factory=list)

    def record(self, message: str) -> None:
        self.violations += 1
        if len(self.details) < 20:
            self.details.append(message)

    def to_text(self) -> str:
        lines = [f"claim={self.claim_id} trials={self.trials} violations={self.violations}"]
        lines.extend(self.details)
        return "\n".join(lines) + "\n"


def run_claim_check(claim_id: str, trials: int, seed: int, q: int = 9) -> ClaimCheckReport:
    if claim_id not in CLAIM_IDS:
        raise ValueError(f"unknown claim id {claim_id!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    report = ClaimCheckReport(claim_id, trials)
    runner = {
        "fact1": _check_fact1,
        "fact2": _check_fact2,
        "fact3": _check_fact3,
        "fact4": _check_fact4,
        "claim1": _check_claim1,
        "konig": _check_konig,
    }[claim_id]
    for trial in range(trials):
        runner(report, trial, seed, q)
    return report


def random_strong_tournament(n: int, seed: int) -> Tournament:
    """Resample until strongly connected (fast for n >= 5)."""
    for attempt in range(1000):
        t = random_tournament(n, derive_seed(seed, 0x57F0, attempt))
        if len(t.strong_components()) == 1:
            return t
    raise RuntimeError(f"no strong tournament found at n={n}")


def _strong_with_cycle(trial: int, seed: int, lo: int = 7, hi: int = 9):
    n = lo + trial % (hi - lo + 1)
    t = random_strong_tournament(n, derive_seed(seed, trial))
    return t, hamiltonian_cycle(t)


def _arcs_into(t: Tournament, v: int, vertices) -> int:
    return (t.out_mask(v) & mask_of(vertices)).bit_count()


def _check_fact1(report, trial, seed, q):
    t, cycle = _strong_with_cycle(trial, seed)
    m = len(cycle)
    shorter, u = surgery.fact1_shrink(t, cycle)
    if sorted(shorter + (u,)) != sorted(cycle):
        report.record(f"trial {trial}: vertex set changed")
    elif not _valid_cycle(t, shorter, m - 1):
        report.record(f"trial {trial}: invalid shrunk cycle")
    elif _arcs_into(t, u, cycle) > m - 3:
        report.record(f"trial {trial}: leftover degree {_arcs_into(t, u, cycle)} > {m - 3}")


def _check_fact2(report, trial, seed, q):
    t, cycle = _strong_with_cycle(trial, seed)
    m = len(cycle)
    shorter, u = surgery.fact2_shrink(t, cycle)
    if sorted(shorter + (u,)) != sorted(cycle):
        report.record(f"trial {trial}: vertex set changed")
    elif not _valid_cycle(t, shorter, m - 1):
        report.record(f"trial {trial}: invalid shrunk cycle")
    elif _arcs_into(t, u, cycle) > m - 4:
        report.record(f"trial {trial}: leftover degree {_arcs_into(t, u, cycle)} > {m - 4}")


def _check_fact3(report, trial, seed, q):
    t, cycle = _strong_with_cycle(trial, seed)
    m = len(cycle)
    shorter, (x, y) = surgery.fact3_double_shrink(t, cycle)
    if sorted(shorter + (x, y)) != sorted(cycle):
        report.record(f"trial {trial}: vertex set changed")
    elif not _valid_cycle(t, shorter, m - 2):
        report.record(f"trial {trial}: invalid shrunk cycle")
    elif not t.arc(x, y):
        report.record(f"trial {trial}: removed pair carries no ({x}, {y}) arc")
    elif _arcs_into(t, y, cycle) > m - 4:
        report.record(f"trial {trial}: arc target degree {_arcs_into(t, y, cycle)} > {m - 4}")


def _check_fact4(report, trial, seed, q):
    t, cycle = _strong_with_cycle(trial, seed)
    m = len(cycle)
    rng = random.Random(derive_seed(seed, 0xF4, trial))
    candidates = rng.sample(cycle, 3)
    v = surgery.fact4_low_vertex(t, cycle, candidates)
    if v not in candidates:
        report.record(f"trial {trial}: returned vertex not among candidates")
    elif _arcs_into(t, v, cycle) > m - 3:
        report.record(f"trial {trial}: degree {_arcs_into(t, v, cycle)} > {m - 3}")


def _threshold_instance(rng: random.Random, size1: int, size2: int, minimum: int) -> Tournament:
    """Tournament on size1 + size2 vertices with an exact cross arc count drawn
    from [minimum, size1*size2]; the first block is X, the second Y."""
    total = size1 * size2
    if minimum > total:
        raise ValueError(f"threshold {minimum} exceeds the {total} available arcs")
    count = rng.randint(minimum, total)
    forward = set(rng.sample(range(total), count))
    n = size1 + size2
    rows = [0] * n
    idx = 0
    for x in range(size1):
        for y in range(size1, n):
            if idx in forward:
                rows[x] |= 1 << y
            else:
                rows[y] |= 1 << x
            idx += 1
    for block in (range(size1), range(size1, n)):
        vs = list(block)
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if rng.getrandbits(1):
                    rows[vs[i]] |= 1 << vs[j]
                else:
                    rows[vs[j]] |= 1 << vs[i]
    return Tournament(rows)


def _check_claim1(report, trial, seed, q):
    """All three threshold shapes: the promised matching sizes and, at the
    largest threshold, at least three vertices dominating the target side."""
    rng = random.Random(derive_seed(seed, 0xC1A, trial))
    shapes = (
        (q + 1, q, q * q - q - 1, q - 1, False),
        (q + 1, q, q * q, q, False),
        (q, q, q * q - q + 3, q, True),
    )
    for size1, size2, threshold, promised, wants_dominators in shapes:
        t = _threshold_instance(rng, size1, size2, threshold)
        xs = set(range(size1))
        ys = set(range(size1, size1 + size2))
        if t.arcs_between(xs, ys) < threshold:
            report.record(f"trial {trial}: generator missed the arc threshold")
            continue
        pairs, cover = max_matching_with_cover(t, xs, ys)
        if not _konig_ok(t, xs, ys, pairs, cover):
            report.record(f"trial {trial}: duality violated")
        if len(pairs) < promised:
            report.record(
                f"trial {trial}: matching {len(pairs)} below promised {promised}"
            )
        if wants_dominators and len(dominating_vertices(t, xs, ys)) < 3:
            report.record(f"trial {trial}: fewer than three dominating vertices")


def _konig_ok(t, xs, ys, pairs, cover) -> bool:
    if len(pairs) != len(cover):
        return False
    if len({x for x, _ in pairs}) != len(pairs) or len({y for _, y in pairs}) != len(pairs):
        return False
    if any(not t.arc(x, y) for x, y in pairs):
        return False
    return all(x in cover or y in cover for x in xs for y in ys if t.arc(x, y))


def _check_konig(report, trial, seed, q):
    rng = random.Random(derive_seed(seed, 0xD0A1, trial))
    n = rng.randint(6, 14)
    t = random_tournament(n, rng.getrandbits(63))
    vertices = rng.sample(range(n), rng.randint(2, min(n, 10)))
    half = max(1, len(vertices) // 2)
    xs, ys = set(vertices[:half]), set(vertices[half:])
    if not ys:
        return
    pairs, cover = max_matching_with_cover(t, xs, ys)
    if not _konig_ok(t, xs, ys, pairs, cover):
        report.record(f"trial {trial}: duality violated")
    if len(pairs) != _brute_matching(t, sorted(xs), sorted(ys)):
        report.record(f"trial {trial}: matching not maximum")


def _brute_matching(t, xs, ys, used=frozenset()) -> int:
    if not xs:
        return 0
    head, *rest = xs
    best = _brute_matching(t, rest, ys, used)
    for y in ys:
        if y not in used and t.arc(head, y):
            best = max(best, 1 + _brute_matching(t, rest, ys, used | {y}))
    return best


def _valid_cycle(t, cycle, length) -> bool:
    return len(cycle) == length and is_cycle(t, cycle)
