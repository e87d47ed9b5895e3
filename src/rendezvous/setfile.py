"""Plain-text matrix set files.

Format: a header line ``n m``, then m matrices, each n lines of n digit
characters.  Blank lines separate matrices; ``#`` starts a comment, and a
comment directly above a matrix names it.  Entries above 1 are normalized
to 1 on input (positive magnitudes never matter here); any non-digit
character is an error.  ``parse(serialize(s)) == s`` holds exactly,
labels included.
"""

from __future__ import annotations

import os

from .boolmat import BoolMatrix, MatrixSet
from .errors import SetFileError


def parse_set_text(text: str) -> MatrixSet:
    lines = text.split("\n")
    header: tuple[int, int] | None = None
    matrices: list[BoolMatrix] = []
    labels: list[str] = []
    pending_label: str | None = None
    current_rows: list[int] = []
    current_start = 0

    def finish_matrix(line_no: int) -> None:
        nonlocal pending_label, current_rows
        n = header[0]
        if len(current_rows) != n:
            raise SetFileError(
                f"matrix has {len(current_rows)} rows, expected {n}", line_no
            )
        matrices.append(BoolMatrix(n, tuple(current_rows)))
        labels.append(pending_label or f"M{len(matrices)}")
        pending_label = None
        current_rows = []

    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r").strip()
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment and not current_rows:
                pending_label = comment
            continue
        if not line:
            if current_rows:
                finish_matrix(line_no)
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise SetFileError("header must be two integers: n m", line_no)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise SetFileError("header must be two integers: n m", line_no)
            if n < 1 or m < 1:
                raise SetFileError(f"header values must be >= 1, got n={n} m={m}", line_no)
            header = (n, m)
            continue
        n = header[0]
        if len(line) != n:
            raise SetFileError(
                f"row has {len(line)} characters, expected {n}", line_no
            )
        if not line.strip("01"):
            # Only ASCII 0/1: bit j is character j, so read the reversed row in base 2.
            mask = int(line[::-1], 2)
        else:
            mask = 0
            for j, ch in enumerate(line):
                if not ch.isdigit():
                    raise SetFileError(f"invalid character {ch!r} in matrix row", line_no)
                if ch != "0":
                    mask |= 1 << j
        if not current_rows:
            current_start = line_no
        current_rows.append(mask)
        if len(current_rows) == n:
            finish_matrix(line_no)

    if header is None:
        raise SetFileError("empty file: missing header")
    if current_rows:
        raise SetFileError(
            f"matrix starting at line {current_start} is incomplete", len(lines)
        )
    if len(matrices) != header[1]:
        raise SetFileError(
            f"header promises {header[1]} matrices, found {len(matrices)}"
        )
    return MatrixSet(header[0], tuple(matrices), tuple(labels))


def parse_set_file(path: str | os.PathLike) -> MatrixSet:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SetFileError(f"cannot read {path}: {exc}")
    return parse_set_text(text)


def serialize_set(mset: MatrixSet) -> str:
    chunks = [f"{mset.n} {mset.m}", ""]
    for label, mat in zip(mset.labels, mset.generators):
        chunks.append(f"# {label}")
        chunks.extend(mat.to_lines())
        chunks.append("")
    return "\n".join(chunks)
