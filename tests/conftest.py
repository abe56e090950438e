import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cyclemill import Tournament, build_tournament, rotational_tournament


def transitive(n):
    return build_tournament(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def chained_triangles(m):
    """Triangles on 3b, 3b+1, 3b+2 for b < m, each beating every later one:
    m strong components in a chain, and exactly m disjoint triangles."""
    n = 3 * m
    full = (1 << n) - 1
    return Tournament(
        [1 << (v - v % 3 + (v + 1) % 3) | full & ~((1 << (v - v % 3 + 3)) - 1) for v in range(n)]
    )


@pytest.fixture
def paley7():
    return rotational_tournament(7, {1, 2, 4})


@pytest.fixture
def triangle():
    return build_tournament(3, [(0, 1), (1, 2), (2, 0)])
