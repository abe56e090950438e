"""Exact desk-scale computations: enumerate q-cycles, exact maximum disjoint
q-cycle packings by branch and bound, and exhaustive or sampled searches for
threshold violators."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import trn
from .core import Cycle, Tournament, bits, mask_of
from .gen import derive_seed, random_tournament
from .packer import CyclePacking

DEFAULT_CYCLE_CAP = 200_000


class OracleCapError(RuntimeError):
    """The instance has too many q-cycles for exact computation."""


def enumerate_q_cycles(t: Tournament, q: int, cap: int = DEFAULT_CYCLE_CAP) -> tuple[list[Cycle], bool]:
    """All q-cycles up to rotation, lowest vertex first; truncated at ``cap``.

    Returns (cycles, overflowed).  Cycles live inside strong components, so
    the DFS never leaves one.
    """
    if q < 3:
        raise ValueError("cycle length must be at least 3")
    rows = t.rows
    found: list[Cycle] = []
    overflow = False

    def dfs(used: int) -> bool:
        nonlocal overflow
        last = path[-1]
        if len(path) == q:
            if rows[last] >> start & 1:
                if len(found) >= cap:
                    overflow = True
                    return False
                found.append(tuple(path))
            return True
        for v in bits(rows[last] & allowed & ~used):
            path.append(v)
            ok = dfs(used | (1 << v))
            path.pop()
            if not ok:
                return False
        return True

    try:
        for comp in t.strong_components():
            if len(comp) < q:
                continue
            comp_mask = mask_of(comp)
            for start in sorted(comp):
                allowed = comp_mask & ~((1 << (start + 1)) - 1)  # vertices above start
                path = [start]
                if not dfs(1 << start):
                    return found, True
        return found, overflow
    finally:
        # dfs reaches itself through its closure.  Breaking that reference
        # cycle lets reference counting free ``found`` as soon as the caller
        # drops it, instead of at the next full garbage collection.
        del dfs


def max_disjoint_q_cycles(
    t: Tournament,
    q: int,
    limit: int | None = None,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> tuple[int, CyclePacking]:
    """Exact maximum number of disjoint q-cycles, with a witness packing.

    Branches on the lowest uncovered vertex: either one of its cycles joins the
    packing or the vertex is left uncovered.  With ``limit`` set, the search
    stops as soon as that many disjoint cycles are found, so a result below the
    limit is still the exact maximum.
    """
    cycles, overflow = enumerate_q_cycles(t, q, cycle_cap)
    if overflow:
        raise OracleCapError(f"more than {cycle_cap} {q}-cycles; exact search refused")
    return _branch_and_bound(t, q, cycles, limit)


def _branch_and_bound(
    t: Tournament, q: int, cycles: list[Cycle], limit: int | None
) -> tuple[int, CyclePacking]:
    masks = [mask_of(c) for c in cycles]
    union = 0
    for m in masks:
        union |= m
    by_vertex: dict[int, list[int]] = {v: [] for v in bits(union)}
    for idx, m in enumerate(masks):
        for v in bits(m):
            by_vertex[v].append(idx)

    best: list[int] = []
    chosen: list[int] = []

    def search(free: int) -> bool:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen.copy()
            if limit is not None and len(best) >= limit:
                return False
        if len(chosen) + (free & union).bit_count() // q <= len(best):
            return True
        live = free & union
        if not live:
            return True
        v = next(bits(live))
        for idx in by_vertex[v]:
            if masks[idx] & ~free:
                continue
            chosen.append(idx)
            ok = search(free & ~masks[idx])
            chosen.pop()
            if not ok:
                return False
        return search(free & ~(1 << v))

    try:
        search(t.full_mask)
    finally:
        del search  # break the closure's self-reference, as in enumerate_q_cycles
    witness = CyclePacking(q, tuple(cycles[i] for i in best))
    return len(best), witness


@dataclass(frozen=True)
class SearchSpec:
    """What to search for: q-cycle count targets over a vertex-count range."""

    q: int
    k: int
    n_range: tuple[int, int]
    mode: str = "exhaustive"  # or "random"
    sample_count: int = 0
    seed: int = 0
    degree_floor: int | None = None

    def __post_init__(self) -> None:
        if self.q < 3 or self.k < 1:
            raise ValueError("need q >= 3 and k >= 1")
        lo, hi = self.n_range
        if lo < self.q or hi < lo:
            raise ValueError(f"vertex range {self.n_range} must start at q={self.q}")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "random" and self.sample_count < 1:
            raise ValueError("random mode needs sample_count >= 1")
        if self.floor < 0:
            raise ValueError("degree_floor must be nonnegative")

    @property
    def floor(self) -> int:
        if self.degree_floor is not None:
            return self.degree_floor
        return (self.q - 1) * self.k - 1


@dataclass
class SearchReport:
    spec: SearchSpec
    examined: int = 0
    violators: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        lines = list(self.violators)
        lines.append(
            f"examined={self.examined} violators={len(self.violators)} seed={self.spec.seed}"
        )
        return "\n".join(lines) + "\n"


def _pair_bits(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _degree_tables(pairs: list[tuple[int, int]], n: int, width: int, offset: int):
    """Out-degree contribution of each value of a contiguous bit chunk."""
    table = []
    for value in range(1 << width):
        deg = [0] * n
        for b in range(width):
            i, j = pairs[offset + b]
            if value >> b & 1:
                deg[i] += 1
            else:
                deg[j] += 1
        table.append(tuple(deg))
    return table


def _tournament_from_pattern(n: int, pairs: list[tuple[int, int]], pattern: int) -> Tournament:
    rows = [0] * n
    for b, (i, j) in enumerate(pairs):
        if pattern >> b & 1:
            rows[i] |= 1 << j
        else:
            rows[j] |= 1 << i
    return Tournament(rows)


def counterexample_search(spec: SearchSpec, shards: int = 1) -> SearchReport:
    """Check every examined tournament for at least k disjoint q-cycles.

    Exhaustive mode walks the upper-triangle bit patterns in lexicographic
    order (split into ``shards`` contiguous ranges, merged in order, so the
    report bytes do not depend on the shard count); random mode derives one
    tournament per sample index from the seed.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    report = SearchReport(spec)
    if spec.mode == "exhaustive":
        for n in range(spec.n_range[0], spec.n_range[1] + 1):
            _exhaustive_scan(spec, n, shards, report)
    else:
        _random_scan(spec, shards, report)
    return report


def _test_instance(spec: SearchSpec, t: Tournament, report: SearchReport) -> None:
    report.examined += 1
    count, _ = max_disjoint_q_cycles(t, spec.q, limit=spec.k)
    if count < spec.k:
        report.violators.append(f"{t.n} {''.join(trn.rows_text(t))}")


def _exhaustive_scan(spec: SearchSpec, n: int, shards: int, report: SearchReport) -> None:
    if n > 8:
        raise ValueError(
            f"exhaustive mode stops at 8 vertices ({n * (n - 1) // 2} pair bits); use random mode"
        )
    pairs = _pair_bits(n)
    nbits = len(pairs)
    total = 1 << nbits
    lo_bits = min(nbits, 12)
    lo_table = _degree_tables(pairs, n, lo_bits, 0)
    hi_table = _degree_tables(pairs, n, nbits - lo_bits, lo_bits)
    lo_mask = (1 << lo_bits) - 1
    floor = spec.floor
    bounds = [total * s // shards for s in range(shards + 1)]
    for s in range(shards):
        for pattern in range(bounds[s], bounds[s + 1]):
            dl = lo_table[pattern & lo_mask]
            dh = hi_table[pattern >> lo_bits]
            for a, b in zip(dl, dh):
                if a + b < floor:
                    break
            else:
                _test_instance(spec, _tournament_from_pattern(n, pairs, pattern), report)


def _random_scan(spec: SearchSpec, shards: int, report: SearchReport) -> None:
    lo, hi = spec.n_range
    bounds = [spec.sample_count * s // shards for s in range(shards + 1)]
    for s in range(shards):
        for idx in range(bounds[s], bounds[s + 1]):
            rng = random.Random(derive_seed(spec.seed, 0x5EA2C4, idx))
            n = rng.randint(lo, hi)
            t = random_tournament(n, rng.getrandbits(63))
            if t.min_out_degree() >= spec.floor:
                _test_instance(spec, t, report)
