"""Differential tests: every mask-taking kernel must return exactly what the
same kernel returns on ``t.induced(mask)``, mapped back to parent labels."""

import random

import pytest

from cyclemill import (
    NotStrongError,
    cycle_of_length,
    cycle_through_vertex,
    hamiltonian_cycle,
    hamiltonian_path,
    random_tournament,
)
from cyclemill.core import Tournament, VertexRangeError, bits


def layered_tournament(n, rng):
    """The triangle 0->1->2->0, beaten by a random set of the other vertices
    and beating the rest, with random arcs elsewhere.  No vertex has arcs both
    into and out of that triangle, so growing it takes the dominator and
    dominated branch of the cycle growth step, which random tournaments
    almost never reach."""
    rows = [0] * n
    beats_triangle = [rng.getrandbits(1) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j < 3:
                forward = j == i + 1
            elif i < 3:
                forward = not beats_triangle[j]
            else:
                forward = rng.getrandbits(1)
            if forward:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return Tournament(rows)


def cases(count=60):
    """Seeded random and layered tournaments with n <= 30, and random
    nonempty masks."""
    rng = random.Random(20170707)
    for i in range(count):
        n = rng.randint(1, 30)
        if i % 2:
            t = layered_tournament(n, rng)
        else:
            t = random_tournament(n, rng.getrandbits(63))
        mask = 0
        while not mask:
            mask = rng.getrandbits(n) | rng.getrandbits(n)  # about 3/4 of the vertices
        sub, label = t.induced(bits(mask))
        yield t, mask, sub, label


def lift(result, label):
    """A kernel's result on the induced subtournament, in parent labels."""
    return result if result is NotStrongError else tuple(label[v] for v in result)


def outcome(fn, *args):
    """The kernel's result, or NotStrongError when it raised that."""
    try:
        return fn(*args)
    except NotStrongError:
        return NotStrongError


def test_strong_components():
    for t, mask, sub, label in cases():
        expected = [frozenset(label[v] for v in c) for c in sub.strong_components()]
        assert t.strong_components(mask) == expected


def test_hamiltonian_path():
    for t, mask, sub, label in cases():
        assert hamiltonian_path(t, mask) == lift(hamiltonian_path(sub), label)


def test_hamiltonian_cycle():
    results = []
    for t, mask, sub, label in cases():
        got = outcome(hamiltonian_cycle, t, mask)
        ref = outcome(hamiltonian_cycle, sub)
        assert got == lift(ref, label)
        results.append(got is NotStrongError)
    assert any(results) and not all(results)  # both outcomes are exercised


def test_cycle_of_length():
    strong = 0
    for t, mask, sub, label in cases():
        for length in range(3, sub.n + 1):
            got = outcome(cycle_of_length, t, length, mask)
            ref = outcome(cycle_of_length, sub, length)
            assert got == lift(ref, label)
            strong += got is not NotStrongError
    assert strong > 100  # the sample must exercise the strong case too


def test_cycle_through_vertex():
    strong = 0
    for t, mask, sub, label in cases(30):
        for i, v in enumerate(label):
            for length in range(3, sub.n + 1):
                got = outcome(cycle_through_vertex, t, v, length, mask)
                ref = outcome(cycle_through_vertex, sub, i, length)
                assert got == lift(ref, label)
                strong += got is not NotStrongError
    assert strong > 100


def test_not_strong_mask_raises_in_both():
    t = random_tournament(12, 3)
    # a vertex beaten by the rest of the mask makes the subtournament not strong
    v = next(v for v in range(t.n) if 4 <= t.cols[v].bit_count() < t.n - 1)
    sink = t.cols[v] | 1 << v
    sub, label = t.induced(bits(sink))
    for fn, args, sub_args in (
        (hamiltonian_cycle, (t, sink), (sub,)),
        (cycle_of_length, (t, 3, sink), (sub, 3)),
        (cycle_through_vertex, (t, v, 3, sink), (sub, label.index(v), 3)),
    ):
        with pytest.raises(NotStrongError):
            fn(*args)
        with pytest.raises(NotStrongError):
            fn(*sub_args)


def test_mask_outside_vertex_range():
    t = random_tournament(5, 1)
    with pytest.raises(VertexRangeError):
        t.strong_components(1 << 5)
    with pytest.raises(VertexRangeError):
        hamiltonian_path(t, -1)
    with pytest.raises(VertexRangeError):
        cycle_through_vertex(t, 0, 3, 0b11110)
