"""Plain-text matrix set files.

Format: a header line ``n m``, then m matrices, each n lines of n digit
characters.  Blank lines separate matrices; ``#`` starts a comment, and a
comment directly above a matrix names it.  Every digit is read by its
value, in any script: a zero is 0 and any other digit 1 (positive
magnitudes never matter here); any non-digit character is an error.  A
leading byte order mark is skipped.  ``parse(serialize(s)) == s`` holds
exactly, labels included.
"""

from __future__ import annotations

import os

from .boolmat import BoolMatrix, MatrixSet
from .errors import SetFileError


class _Bits(dict):
    """``str.translate`` table from a digit character to ``"0"`` or ``"1"``
    by its value; a non-digit has no entry, so it stays as it is."""

    def __missing__(self, code: int) -> str:
        import unicodedata  # on first need: most files hold ASCII digits only

        value = unicodedata.digit(chr(code), None)
        if value is None:
            raise KeyError(code)
        return "1" if value else "0"


_BITS = _Bits(str.maketrans("0123456789", "0111111111"))


def parse_set_text(text: str) -> MatrixSet:
    lines = text.removeprefix("\ufeff").split("\n")
    n = m = None
    matrices: list[BoolMatrix] = []
    labels: list[str] = []
    label: str | None = None
    rows: list[int] = []
    start = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment and not rows:
                label = comment
        elif not line:
            if rows:
                raise SetFileError(f"matrix has {len(rows)} rows, expected {n}", line_no)
        elif n is None:
            parts = line.split()
            # isdecimal, unlike int(), refuses a sign, "_" and spaces in a field.
            if len(parts) != 2 or not "".join(parts).isdecimal():
                raise SetFileError("header must be two integers: n m", line_no)
            n, m = map(int, parts)
            if n < 1 or m < 1:
                raise SetFileError(f"header values must be >= 1, got n={n} m={m}", line_no)
        elif len(line) != n:
            raise SetFileError(f"row has {len(line)} characters, expected {n}", line_no)
        else:
            bits = line.translate(_BITS)
            rest = bits.lstrip("01")
            if rest:
                raise SetFileError(f"invalid character {rest[0]!r} in matrix row", line_no)
            if not rows:
                start = line_no
            # Bit j is character j, so read the reversed row in base 2.
            rows.append(int(bits[::-1], 2))
            if len(rows) == n:
                matrices.append(BoolMatrix(n, tuple(rows)))
                labels.append(label or f"M{len(matrices)}")
                label, rows = None, []

    if n is None:
        raise SetFileError("empty file: missing header")
    if rows:
        raise SetFileError(f"matrix starting at line {start} is incomplete", len(lines))
    if len(matrices) != m:
        raise SetFileError(f"header promises {m} matrices, found {len(matrices)}")
    return MatrixSet(n, tuple(matrices), tuple(labels))


def parse_set_file(path: str | os.PathLike) -> MatrixSet:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SetFileError(f"cannot read {path}: {exc}")
    return parse_set_text(text)


def serialize_set(mset: MatrixSet) -> str:
    chunks = [f"{mset.n} {mset.m}", ""]
    for label, mat in zip(mset.labels, mset.generators):
        chunks.append(f"# {label}")
        chunks.extend(mat.to_lines())
        chunks.append("")
    return "\n".join(chunks)
