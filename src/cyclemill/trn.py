"""TRN text format: a decimal vertex count followed by n rows of '0'/'1' characters."""

from __future__ import annotations

from .core import MAX_VERTICES, Tournament, TournamentError


class TrnParseError(ValueError):
    """Input is not a well-formed TRN document."""


def rows_text(t: Tournament) -> list[str]:
    """Row ``i`` as ``n`` characters of 0/1, column ``j`` being ``1`` iff ``i`` beats ``j``."""
    fmt = f"0{t.n}b"
    return [format(row, fmt)[::-1] for row in t.rows]


def dumps(t: Tournament) -> str:
    return "\n".join([str(t.n), *rows_text(t)]) + "\n"


def loads(text: str) -> Tournament:
    """Parse a TRN document. Strict: any byte outside the format is an error."""
    body = text[:-1] if text.endswith("\n") else text
    lines = body.split("\n")
    header = lines[0]
    if not header or not header.isascii() or not header.isdigit():
        raise TrnParseError(f"bad vertex count line: {header!r}")
    n = int(header)
    if not 1 <= n <= MAX_VERTICES:
        raise TrnParseError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    if len(lines) != n + 1:
        raise TrnParseError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        if len(line) != n or line.strip("01"):
            raise TrnParseError(f"row {i} is not {n} characters of 0/1: {line!r}")
        if line[i] != "0":
            raise TrnParseError(f"row {i} has a nonzero diagonal entry")
        rows.append(int(line[::-1], 2))
    del body, lines  # the constructor's transpose builds its own row strings
    try:
        return Tournament(rows)
    except TournamentError as exc:
        raise TrnParseError(str(exc)) from exc
