"""Plain-text matrix files.

Format: three header lines (``n``, ``ordering``, ``kind``) followed by 2n
rows of 2n space-separated decimals printed with 17 significant digits, so
parse-then-serialize is value identical.  ``ordering`` is always the
interleaved ``xpxp`` convention; ``kind`` distinguishes covariance matrices
from symplectic transforms.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _square_input, number
from .errors import InvalidInput

ORDERING = "xpxp"
KINDS = ("covariance", "symplectic")


class MatrixParseError(InvalidInput):
    """Malformed matrix file; carries the offending location when known."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        place = ""
        if row is not None:
            place = f" (row {row}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + place)
        self.row = row
        self.column = column


@dataclass(eq=False)
class MatrixFile:
    n: int
    kind: str
    values: np.ndarray


def format_matrix(values: np.ndarray, kind: str) -> str:
    """A matrix file's text; the values pass ``config._square_input``."""
    if kind not in KINDS:
        raise InvalidInput(f"kind must be one of {KINDS}, got {kind!r}")
    values, n, _ = _square_input(values, "matrix")
    # Python floats format faster than numpy scalars, to the same digits
    row_format = " ".join(["%.17g"] * (2 * n))
    lines = [f"n {n}", f"ordering {ORDERING}", f"kind {kind}"]
    lines += [row_format % tuple(row) for row in values.tolist()]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> MatrixFile:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if len(lines) < 3:
        raise MatrixParseError("file is missing the three header lines")
    header = {}
    for ln in lines[:3]:
        parts = ln.split(None, 1)
        if len(parts) != 2:
            raise MatrixParseError(f"malformed header line {ln!r}")
        header[parts[0]] = parts[1]
    for key in ("n", "ordering", "kind"):
        if key not in header:
            raise MatrixParseError(f"header is missing {key!r}")
    try:
        n = number(header["n"], int)
    except ValueError:
        raise MatrixParseError(f"header n is not an integer: {header['n']!r}") from None
    if n < 1:
        raise MatrixParseError(f"mode count must be positive, got {n}")
    if header["ordering"] != ORDERING:
        raise MatrixParseError(f"unsupported ordering {header['ordering']!r}")
    if header["kind"] not in KINDS:
        raise MatrixParseError(f"unsupported kind {header['kind']!r}")
    body = lines[3:]
    if len(body) != 2 * n:
        raise MatrixParseError(f"expected {2 * n} body rows, found {len(body)}")
    try:  # the text rule, once for the whole body; only a failure reads each token under it
        number(" ".join(body), str)
        read = float
    except InvalidInput:
        read = number
    rows = []
    for i, ln in enumerate(body, start=1):
        parts = ln.split()
        if len(parts) != 2 * n:
            raise MatrixParseError(f"expected {2 * n} values, found {len(parts)}", row=i)
        try:
            rows.append(list(map(read, parts)))
        except ValueError:
            # walk the row again only to name the failing column
            for j, token in enumerate(parts, start=1):
                try:
                    number(token)
                except ValueError:
                    raise MatrixParseError(f"could not parse value {token!r}",
                                           row=i, column=j) from None
    values = np.array(rows)
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise MatrixParseError(f"non-finite value {values[i, j]}",
                               row=int(i) + 1, column=int(j) + 1)
    return MatrixFile(n=n, kind=header["kind"], values=values)


def read_matrix(path) -> MatrixFile:
    return parse_matrix(Path(path).read_text())
