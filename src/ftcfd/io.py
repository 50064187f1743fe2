"""CSV serialization of functional samples and gridded estimates.

Sample format: header row ``t,<t_1>,...,<t_p>``, then one row per curve
``curve_<i>,v_1,...,v_p`` with empty cells for missing values. UTF-8,
``.`` decimal separator.
"""

from __future__ import annotations

import csv
import io as _io
from pathlib import Path

import numpy as np

from .core import FunctionalSample, Grid
from .errors import ParseError

# Enough digits to round-trip float64 exactly.
_FMT = "%.17g"


def _cell(x: float) -> str:
    return "" if np.isnan(x) else _FMT % x


def write_sample_csv(sample: FunctionalSample, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [_FMT % t for t in sample.grid.points])
        for i in range(sample.n):
            w.writerow([f"curve_{i + 1}"] + [_cell(v) for v in sample.values[i]])


def read_sample_csv(path) -> FunctionalSample:
    text = Path(path).read_text(encoding="utf-8")
    return parse_sample_csv(text)


def parse_sample_csv(text: str) -> FunctionalSample:
    rows = list(csv.reader(_io.StringIO(text)))
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    if not rows:
        raise ParseError("empty input")
    header = rows[0]
    if not header or header[0] != "t":
        raise ParseError("header must start with 't'", line=1)
    try:
        grid = Grid(np.array([float(x) for x in header[1:]]))
    except ValueError as exc:
        raise ParseError(f"bad grid header: {exc}", line=1) from None
    p = grid.p
    values = []
    empty = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != p + 1:
            raise ParseError(f"expected {p + 1} fields, got {len(row)}", line=lineno)
        cells = row[1:]
        try:
            vals = [np.nan if cell == "" else float(cell) for cell in cells]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        values.append(vals)
        empty.append(cells.count(""))
    if not values:
        raise ParseError("no curve rows")
    values = np.array(values)
    # Only empty cells are gaps: a written nan or inf is malformed, not missing.
    bad = np.flatnonzero(np.count_nonzero(~np.isfinite(values), axis=1) != empty)
    if bad.size:
        i = int(bad[0])
        row = rows[i + 1]
        j = next(j for j in range(p) if row[j + 1] and not np.isfinite(values[i, j]))
        raise ParseError(
            f"non-finite value {row[j + 1]!r} in field {j + 2}", line=i + 2
        )
    try:
        return FunctionalSample.from_values(grid, values)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def write_coefficient_sidecar(path, d: np.ndarray, xi: np.ndarray) -> None:
    """Sidecar CSV ``i,d_i,xi_1,...,xi_J`` next to a simulated sample."""
    xi = np.asarray(xi)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "d_i"] + [f"xi_{j + 1}" for j in range(xi.shape[1])])
        for i in range(xi.shape[0]):
            w.writerow([i + 1, _FMT % d[i]] + [_FMT % x for x in xi[i]])


def write_vector_csv(path, grid: Grid, values: np.ndarray, name: str = "value") -> None:
    """Grid-indexed vector (e.g. a mean estimate); empty cell = undefined."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", name])
        for t, v in zip(grid.points, values):
            w.writerow([_FMT % t, _cell(v)])


def write_matrix_csv(path, grid: Grid, values: np.ndarray) -> None:
    """Grid-indexed matrix (covariance surface); rows are s, columns t."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["s"] + [_FMT % t for t in grid.points])
        for s, row in zip(grid.points, values):
            w.writerow([_FMT % s] + [_cell(v) for v in row])
