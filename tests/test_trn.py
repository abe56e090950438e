import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemill import Tournament, trn
from cyclemill.core import MAX_VERTICES, TournamentError
from cyclemill.gen import random_tournament

PALEY_TRN = "7\n0110100\n0011010\n0001101\n1000110\n0100011\n1010001\n1101000\n"


def test_dump_paley(paley7):
    assert trn.dumps(paley7) == PALEY_TRN


def test_load_paley(paley7):
    assert trn.loads(PALEY_TRN) == paley7


def test_trailing_newline_optional(paley7):
    assert trn.loads(PALEY_TRN.rstrip("\n")) == paley7


@given(st.integers(0, 2**32), st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_round_trip(seed, n):
    t = random_tournament(n, seed)
    assert trn.loads(trn.dumps(t)) == t


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "x\n010\n001\n100\n",  # bad count line
        "3\n010\n001\n",  # missing row
        "3\n010\n001\n100\n100\n",  # extra row
        "3\n01\n001\n100\n",  # short row
        "3\n012\n001\n100\n",  # bad byte
        "3\n110\n001\n100\n",  # nonzero diagonal
        "3\n010\n101\n100\n",  # antisymmetry: 1 beats 0 and 0 beats 1
        "3\n010\n001\n000\n",  # missing arc between 0 and 2
        "3\r\n010\n001\n100\n",  # carriage return
        "0\n",
        "5000\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(trn.TrnParseError):
        trn.loads(text)


@pytest.mark.parametrize(
    "text",
    [
        "3\n010\n101\n100\n",  # antisymmetry: 1 beats 0 and 0 beats 1
        "3\n010\n001\n000\n",  # missing arc between 0 and 2
    ],
)
def test_pair_errors_come_from_the_constructor(text):
    with pytest.raises(trn.TrnParseError) as exc:
        trn.loads(text)
    assert isinstance(exc.value.__cause__, TournamentError)


def test_round_trip_at_the_vertex_ceiling():
    n = MAX_VERTICES
    full = (1 << n) - 1
    rows = [full ^ ((1 << (i + 1)) - 1) for i in range(n)]  # i beats every j > i
    for i, j in ((0, n - 1), (17, 18), (1000, 3000), (n - 2, n - 1)):
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
    t = Tournament(rows)
    text = trn.dumps(t)
    assert trn.loads(text) == t
    head, last = text.rstrip("\n").rsplit("\n", 1)
    corrupt = "1" if last[5] == "0" else "0"
    with pytest.raises(trn.TrnParseError):
        trn.loads(f"{head}\n{last[:5]}{corrupt}{last[6:]}\n")
