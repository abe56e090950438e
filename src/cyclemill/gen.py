"""Seeded tournament generators: uniform random, rotational, degree-floor
repaired, q-cycle-free layered, and planted instances that trigger each
packing move.

All randomness flows through ``random.Random`` (Mersenne Twister) seeded via
``derive_seed``, a splitmix64-style mixer, so every generator is a pure
function of its arguments and independent call sites get independent streams.
"""

from __future__ import annotations

import random

from .core import CyclePacking, Tournament, VertexRangeError

_M64 = (1 << 64) - 1


def derive_seed(*parts: int) -> int:
    """Mix a master seed and stream tags into one 64-bit child seed."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h + (p & _M64)) & _M64
        h ^= h >> 30
        h = h * 0xBF58476D1CE4E5B9 & _M64
        h ^= h >> 27
        h = h * 0x94D049BB133111EB & _M64
        h ^= h >> 31
    return h


class _ArcBuilder:
    """Accumulates one orientation per vertex pair, then builds the tournament."""

    def __init__(self, n: int):
        self.n = n
        self.rows = [0] * n

    def oriented(self, a: int, b: int) -> bool:
        return bool((self.rows[a] >> b | self.rows[b] >> a) & 1)

    def orient(self, a: int, b: int) -> None:
        assert a != b and not self.oriented(a, b), f"pair {{{a}, {b}}} oriented twice"
        self.rows[a] |= 1 << b

    def coin(self, a: int, b: int, rng: random.Random) -> None:
        if rng.getrandbits(1):
            self.orient(a, b)
        else:
            self.orient(b, a)

    def fill_random(self, rng: random.Random) -> None:
        """One coin per unoriented pair, drawn in (i, j) order with i < j.

        ``oriented`` and ``coin`` are inlined: this is the generators' O(n^2)
        loop, and the method calls made it about three times slower."""
        rows = self.rows
        getrandbits = rng.getrandbits
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if not (rows[i] >> j | rows[j] >> i) & 1:
                    if getrandbits(1):
                        rows[i] |= 1 << j
                    else:
                        rows[j] |= 1 << i

    def build(self) -> Tournament:
        return Tournament(self.rows)


def random_tournament(n: int, seed: int) -> Tournament:
    """Each unordered pair oriented by an independent fair coin."""
    if n < 1:
        raise VertexRangeError(f"vertex count {n} must be positive")
    rng = random.Random(derive_seed(seed, 0xA11CE))
    b = _ArcBuilder(n)
    b.fill_random(rng)
    return b.build()


def rotational_tournament(n: int, symbols: set[int] | frozenset[int] | list[int]) -> Tournament:
    """Arc i->j iff (j - i) mod n lies in the symbol set, a half-system mod n."""
    symbol_set = set(symbols)
    if n < 1 or n % 2 == 0:
        raise ValueError(f"rotational tournaments need an odd vertex count, got {n}")
    if len(symbol_set) != (n - 1) // 2:
        raise ValueError(f"symbol set must have {(n - 1) // 2} elements")
    for d in symbol_set:
        if not 1 <= d <= n - 1:
            raise ValueError(f"symbol {d} outside 1..{n - 1}")
        if (n - d) % n in symbol_set:
            raise ValueError(f"symbols {d} and {n - d} are mutual negations")
    rows = [0] * n
    for i in range(n):
        for d in symbol_set:
            rows[i] |= 1 << ((i + d) % n)
    return Tournament(rows)


def min_degree_tournament(n: int, d: int, seed: int) -> Tournament:
    """Random tournament repaired, by arc flips into deficient vertices, until
    every out-degree is at least d.  Donors keep out-degree above the floor so
    repairs never create new deficiencies."""
    if n < 1:
        raise VertexRangeError(f"vertex count {n} must be positive")
    if d < 0 or d > (n - 1) // 2:
        raise ValueError(f"degree floor {d} infeasible for {n} vertices")
    for attempt in range(64):
        rng = random.Random(derive_seed(seed, 0xDE6, attempt))
        b = _ArcBuilder(n)
        b.fill_random(rng)
        rows = b.rows
        stuck = False
        while not stuck:
            v = next((u for u in range(n) if rows[u].bit_count() < d), None)
            if v is None:
                return Tournament(rows)
            donors = [
                u
                for u in range(n)
                if rows[u] >> v & 1 and rows[u].bit_count() > d
            ]
            if not donors:
                stuck = True
                break
            u = max(donors, key=lambda w: (rows[w].bit_count(), -w))
            rows[u] &= ~(1 << v)
            rows[v] |= 1 << u
    raise RuntimeError(f"degree repair failed for n={n}, d={d} after 64 reseeds")


def q_cycle_free_tournament(n: int, q: int, seed: int) -> Tournament:
    """Random strong blocks of fewer than q vertices arranged in a dominating
    chain, so every strong component stays below q."""
    if q < 3:
        raise ValueError("cycle length must be at least 3")
    if n < 1:
        raise VertexRangeError(f"vertex count {n} must be positive")
    rng = random.Random(derive_seed(seed, 0x9CF))
    sizes = []
    remaining = n
    while remaining:
        cap = min(q - 1, remaining)
        choices = [s for s in range(1, cap + 1) if s != 2]
        s = rng.choice(choices)
        sizes.append(s)
        remaining -= s
    b = _ArcBuilder(n)
    start = 0
    for s in sizes:
        labels = list(range(start, start + s))
        if s >= 3:
            order = labels[:]
            rng.shuffle(order)
            for i in range(s):
                b.orient(order[i], order[(i + 1) % s])  # block stays strong
            for i in range(s):
                for j in range(i + 1, s):
                    if not b.oriented(labels[i], labels[j]):
                        b.coin(labels[i], labels[j], rng)
        for later in range(start + s, n):
            for v in labels:
                b.orient(v, later)
        start += s
    return b.build()


# ---------------------------------------------------------------------------
# Planted move instances
# ---------------------------------------------------------------------------

PLANTED_KINDS = ("claim2", "claim4", "claim5", "tail_case_a", "tail_case_b")


def planted_move_instance(kind: str, q: int, seed: int):
    """A tournament plus packed family where the named move's hypothesis holds
    by construction (and is re-verified through the move itself).

    Returns (tournament, packing, expected_move_name).
    """
    if kind == "claim2":
        if q < 3:
            raise ValueError("claim2 instances need q >= 3")
        return _plant_absorb(q, seed)
    if kind == "claim4":
        if q < 9:
            raise ValueError("claim4 instances need q >= 9")
        return _plant_two_for_one(q, seed)
    if kind == "claim5":
        if q < 9:
            raise ValueError("claim5 instances need q >= 9")
        return _plant_three_for_two(q, seed)
    if kind == "tail_case_a":
        if q < 9:
            raise ValueError("tail instances need q >= 9")
        return _plant_tail(q, seed, block_size=4)
    if kind == "tail_case_b":
        if q < 9:
            raise ValueError("tail instances need q >= 9")
        return _plant_tail(q, seed, block_size=3)
    raise ValueError(f"unknown planted kind {kind!r}")


def _chorded_cycle(b: _ArcBuilder, labels: list[int], rng: random.Random) -> tuple[int, ...]:
    q = len(labels)
    for i in range(q):
        b.orient(labels[i], labels[(i + 1) % q])
    for i in range(q):
        for j in range(i + 1, q):
            if not b.oriented(labels[i], labels[j]):
                b.coin(labels[i], labels[j], rng)
    return tuple(labels)


def _check_planted(t, packing, expected: str):
    from . import packer  # packer imports the oracle, which builds on this module

    partition = packer.partition_remainder(t, packing)
    result = getattr(packer, expected)(t, packing, partition)
    if result is None:
        raise AssertionError(f"planted {expected} instance failed its own hypothesis")
    return t, packing, expected


def _plant_absorb(q: int, seed: int):
    rng = random.Random(derive_seed(seed, 0xC2))
    n = 2 * q
    b = _ArcBuilder(n)
    cycle = _chorded_cycle(b, list(range(q)), rng)
    sub = Tournament([row & ((1 << q) - 1) for row in b.rows[:q]])
    if q == 3:
        w = 0
    else:
        w = next(
            v
            for v in range(q)
            if len(sub.strong_components(sub.full_mask & ~(1 << v))) == 1
        )
    core = [v for v in range(q) if v != w]
    u = q
    chain = list(range(q + 1, 2 * q))  # q-1 vertices completing the freed cycle
    # the absorbed vertex needs one out-arc and otherwise loses to the core
    a0 = core[0] if q >= 4 else (core[0] if sub.arc(core[0], core[1]) else core[1])
    b.orient(u, a0)
    for c in core:
        if c != a0:
            b.orient(c, u)
    b.orient(w, u)
    for i, z in enumerate(chain):
        for z2 in chain[i + 1:]:
            b.orient(z, z2)
        b.orient(z, u)
    b.orient(w, chain[0])
    for z in chain[1:]:
        b.orient(z, w)
    b.fill_random(rng)
    t = b.build()
    packing = CyclePacking(q, (cycle,))
    return _check_planted(t, packing, "move_absorb")


def _plant_two_for_one(q: int, seed: int):
    rng = random.Random(derive_seed(seed, 0xC4))
    r = 4 * q - 2
    n = q + r
    b = _ArcBuilder(n)
    cycle = _chorded_cycle(b, list(range(q)), rng)
    for i in range(q, n):  # transitive remainder: lower label dominates
        for j in range(i + 1, n):
            b.orient(i, j)
    for pos in range(1, q + 1):  # matching into the cycle from the path tail
        b.orient(n - pos, pos - 1)
    b.orient(0, q)  # 2-matching out of the cycle into the far path end
    b.orient(1, q + 1)
    b.fill_random(rng)
    t = b.build()
    packing = CyclePacking(q, (cycle,))
    return _check_planted(t, packing, "move_two_for_one")


def _plant_three_for_two(q: int, seed: int):
    rng = random.Random(derive_seed(seed, 0xC5))
    r = 4 * q - 1
    n = 2 * q + r
    b = _ArcBuilder(n)
    cycle_a = _chorded_cycle(b, list(range(q)), rng)
    cycle_b = _chorded_cycle(b, list(range(q, 2 * q)), rng)
    for a in range(q):
        for c in range(q, 2 * q):
            b.orient(a, c)  # first cycle dominates the second
    for i in range(2 * q, n):
        for j in range(i + 1, n):
            b.orient(i, j)
    for pos in range(1, q + 1):
        b.orient(n - pos, pos - 1)
    for off in range(3):  # 3-matching from the second cycle into the far end
        b.orient(q + off, 2 * q + off)
    b.fill_random(rng)
    t = b.build()
    packing = CyclePacking(q, (cycle_a, cycle_b))
    return _check_planted(t, packing, "move_three_for_two")


def _plant_tail(q: int, seed: int, block_size: int):
    from . import packer  # as in _check_planted

    rng = random.Random(derive_seed(seed, 0xCA + block_size))
    stem = 6
    n = q + block_size + stem
    b = _ArcBuilder(n)
    cycle = _chorded_cycle(b, list(range(q)), rng)
    block = list(range(q, q + block_size))
    _chorded_cycle(b, block, rng)
    stem_labels = list(range(q + block_size, n))
    for i, p in enumerate(stem_labels):
        for p2 in stem_labels[i + 1:]:
            b.orient(p, p2)
    for p in stem_labels:
        for v in block:
            b.orient(p, v)  # the path stem dominates the tail block
    for v in block:
        for c in range(q):
            b.orient(v, c)  # the tail block dominates the packed cycle
    for c in range(q):
        b.orient(c, stem_labels[0])  # every cycle vertex reaches the stem
        b.orient(c, stem_labels[1])
    b.fill_random(rng)
    t = b.build()
    packing = CyclePacking(q, (cycle,))
    partition = packer.partition_remainder(t, packing)
    result = packer.grow_tail(t, packing, partition.path)
    if result is None:
        raise AssertionError("planted tail instance failed its own hypothesis")
    return t, packing, "grow_tail"
