"""CSV reading of functional samples and writing of every table the package emits.

Sample format: header row ``t,<t_1>,...,<t_p>``, then one row per curve
``curve_<i>,v_1,...,v_p`` with empty cells for missing values. UTF-8 (a
leading byte-order mark is read and ignored), ``.`` decimal separator.

Every table (samples, coefficient sidecars, mean vectors, covariance
matrices, principal component scores, experiment results) is written by
``_write_table`` in one layout:

- optional comment lines ``# <text>``, each ending in ``\\n``;
- a header row, then one row per record, each ending in ``\\r\\n``;
- cells separated by ``,``: text cells as given, numbers as ``%.17g``
  (enough digits to round-trip float64 exactly), NaN as an empty cell.

Covariance matrices repeat most of their values (the classical estimate is
symmetric, and the back-transform one equals it on the anchor block), so
their cells are formatted once per distinct value and every row is put
together from those strings; the bytes are the same as cell by cell.
"""

from __future__ import annotations

import csv
import io as _io
from dataclasses import asdict, astuple, fields
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import FunctionalSample, Grid
from .errors import ArgumentError, ParseError

_FMT = "%.17g"


def _write_table(path, header, rows, comments=()) -> None:
    """Write comment lines, the header and the rows in the module's layout.

    Rows are lists of str and number cells, produced one at a time (numpy
    rows via ``.tolist()``) so no whole matrix is converted at once. A str
    cell may hold several cells already joined by ``,``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        for row in chain([header], rows):
            cells = [
                c if isinstance(c, str) else "" if c != c else _FMT % c for c in row
            ]
            fh.write(",".join(cells) + "\r\n")


def write_sample_csv(sample: FunctionalSample, path) -> None:
    _write_table(
        path,
        ["t"] + sample.grid.points.tolist(),
        ([f"curve_{i}"] + row.tolist() for i, row in enumerate(sample.values, start=1)),
    )


def read_sample_csv(path) -> FunctionalSample:
    text = Path(path).read_text(encoding="utf-8-sig")
    return parse_sample_csv(text)


def parse_sample_csv(text: str) -> FunctionalSample:
    reader = csv.reader(_io.StringIO(text))
    # Number rows by their source line before dropping blank ones.
    rows = [(reader.line_num, r) for r in reader if r]
    if not rows:
        raise ParseError("empty input")
    header_line, header = rows[0]
    if header[0] != "t":
        raise ParseError("header must start with 't'", line=header_line)
    try:
        grid = Grid(np.array([float(x) for x in header[1:]]))
    except ValueError as exc:
        raise ParseError(f"bad grid header: {exc}", line=header_line) from None
    p = grid.p
    values = []
    empty = []
    for lineno, row in rows[1:]:
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
        lineno, row = rows[i + 1]
        j = next(j for j in range(p) if row[j + 1] and not np.isfinite(values[i, j]))
        raise ParseError(f"non-finite value {row[j + 1]!r} in field {j + 2}", line=lineno)
    try:
        return FunctionalSample(grid, values)
    except ArgumentError as exc:
        line = None if exc.curve is None else rows[exc.curve + 1][0]
        raise ParseError(str(exc), line=line) from None


def write_coefficient_sidecar(path, d: np.ndarray, xi: np.ndarray) -> None:
    """Sidecar CSV ``i,d_i,xi_1,...,xi_J`` next to a simulated sample."""
    xi = np.asarray(xi)
    _write_table(
        path,
        ["i", "d_i"] + [f"xi_{j + 1}" for j in range(xi.shape[1])],
        ([i + 1, d[i]] + xi[i].tolist() for i in range(xi.shape[0])),
    )


def write_vector_csv(path, grid: Grid, values: np.ndarray) -> None:
    """Grid-indexed mean estimate ``t,mean``; empty cell = undefined."""
    rows = zip(grid.points.tolist(), np.asarray(values).tolist())
    _write_table(path, ["t", "mean"], rows)


def _joined_rows(values: np.ndarray):
    """Each row of a float64 matrix as its cells in the table format, joined by ``,``.

    Each distinct bit pattern is formatted once, and every row is gathered
    from those strings. Keying on bits rather than values keeps ``-0`` and
    ``0`` apart; NaNs of any payload are all written as empty cells.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    # Raveled: numpy 2.0 shapes the inverse of an n-D input differently.
    uniq, inv = np.unique(a.view(np.int64).ravel(), return_inverse=True)
    cells = ["" if v != v else _FMT % v for v in uniq.view(np.float64).tolist()]
    for row in inv.reshape(a.shape):
        idx = row.tolist()
        if len(idx) < 2:  # itemgetter of one index returns the cell, not a tuple
            yield ",".join(cells[i] for i in idx)
        else:
            yield ",".join(itemgetter(*idx)(cells))


def write_matrix_csv(path, grid: Grid, values: np.ndarray) -> None:
    """Grid-indexed matrix (covariance surface); rows are s, columns t."""
    pts = grid.points.tolist()
    rows = zip(pts, _joined_rows(values))
    _write_table(path, ["s"] + pts, ([s, row] for s, row in rows))


def write_scores_csv(path, scores: np.ndarray, explained: np.ndarray) -> None:
    """Per-curve principal component scores ``i,score_1,...,score_k``.

    The explained variance fractions go into a ``# explained=`` line.
    """
    _write_table(
        path,
        ["i"] + [f"score_{j + 1}" for j in range(scores.shape[1])],
        ([i] + row.tolist() for i, row in enumerate(scores, start=1)),
        comments=["explained=" + ",".join(_FMT % e for e in explained)],
    )


def write_experiment_csv(spec, cells, path) -> None:
    """Result table with a self-describing ``# key=value`` header.

    One comment line per field of ``spec``, an ``ExperimentSpec``, then one
    row per cell; the columns are the cells' fields, with ``kind`` written
    as ``dgp`` and bools as ``true``/``false``.
    """
    comments = [
        f"{key}={','.join(map(str, v)) if isinstance(v, (tuple, list)) else v}"
        for key, v in asdict(spec).items()
    ]
    header = ["dgp" if f.name == "kind" else f.name for f in fields(cells[0])]
    rows = (
        [str(v).lower() if isinstance(v, bool) else v for v in astuple(c)]
        for c in cells
    )
    _write_table(path, header, rows, comments)
