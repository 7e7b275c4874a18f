"""The matrix file format.

    symmetric 4          dissimilarity 4
    0 1 0 0              * 1 0 0
    1 0 0 0              1 * 0 0
    0 0 0 1              0 0 * 1
    0 0 1 0              0 0 1 *

First line: kind and dimension.  Entries are integers or "p/q" rationals;
dissimilarity files carry the literal token "*" on the diagonal.  Blank
lines and "#" comments are skipped on input; serialization is canonical,
so parse/serialize round-trips exactly.
"""

from __future__ import annotations

from .core import (
    DissimilarityMatrix,
    Matrix,
    SymmetricMatrix,
    frac,
)


class MatrixFormatError(ValueError):
    pass


def parse_matrix(text: str) -> Matrix:
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2 or header[0] not in ("symmetric", "dissimilarity"):
        raise MatrixFormatError(
            "header must be 'symmetric N' or 'dissimilarity N'"
        )
    kind = header[0]
    try:
        n = int(header[1])
    except ValueError:
        raise MatrixFormatError(f"bad dimension {header[1]!r}") from None
    if n < 1:
        raise MatrixFormatError("dimension must be positive")
    if len(lines) != n + 1:
        raise MatrixFormatError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=1):
        cells = line.split()
        if len(cells) != n:
            raise MatrixFormatError(f"row {lineno} has {len(cells)} cells, expected {n}")
        row = []
        for colno, cell in enumerate(cells, start=1):
            if cell == "*":
                if kind != "dissimilarity" or colno != lineno:
                    raise MatrixFormatError(
                        f"'*' is only allowed on the diagonal of dissimilarity files"
                        f" (row {lineno}, column {colno})"
                    )
                row.append(None)
                continue
            try:
                row.append(frac(cell))
            except (ValueError, TypeError):
                raise MatrixFormatError(
                    f"bad entry {cell!r} at row {lineno}, column {colno}"
                ) from None
        if kind == "dissimilarity" and row[lineno - 1] is not None:
            raise MatrixFormatError(
                f"dissimilarity diagonal must be '*' (row {lineno})"
            )
        rows.append(row)
    try:
        if kind == "symmetric":
            return SymmetricMatrix.from_rows(rows)
        return DissimilarityMatrix.from_rows(rows)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from None


def serialize_matrix(m: Matrix) -> str:
    lines = [f"{m.kind} {m.n}"]
    for row in m.to_rows():
        lines.append(" ".join("*" if x is None else str(x) for x in row))
    return "\n".join(lines) + "\n"


def load_matrix(path: str) -> Matrix:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read())

