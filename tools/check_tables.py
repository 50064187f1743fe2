"""Regenerate the two pinned experiment tables and compare their bytes.

tools/tables/ holds the bias_variance and test_selection tables at the
ExperimentSpec defaults: the paper's four designs, n = 50, 150, 250 and 500,
200 replications per cell, p = 501. A change that keeps every output the
same must regenerate both byte for byte:

    PYTHONPATH=src python tools/check_tables.py            # compare
    PYTHONPATH=src python tools/check_tables.py --update   # re-pin

--tables DIR reads and writes the tables in DIR instead. Where the pinned
last bits do not hold on a machine, compare against the parent commit's
fresh tables: run `--update --tables DIR` in a checkout of the parent, then
`--tables DIR` in the change's.

Set FTCFD_WORKERS to spread the replications over processes; the tables do
not depend on it. They can depend on the BLAS thread count, so the first
line printed is the run's OPENBLAS_NUM_THREADS setting (`unset` if absent).
Where a table's bytes differ, the largest relative move of each column is
printed with the row it occurs in. Exits 1 if any table differs.

Not part of the test suite: the pinned last bits can depend on the BLAS
kernels of the machine, and both tables take about two minutes at one worker.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import tempfile
from pathlib import Path

from ftcfd.harness import (
    MODE_BIAS_VARIANCE,
    MODE_TEST_SELECTION,
    ExperimentSpec,
    run_experiment,
)
from ftcfd.io import write_experiment_csv

TABLES = Path(__file__).resolve().parent / "tables"
MODES = (MODE_BIAS_VARIANCE, MODE_TEST_SELECTION)
# The columns that name a table row.
_ROW_KEYS = ("dgp", "n", "estimator", "target")


def table_bytes(mode: str) -> bytes:
    """The table of one mode at the spec defaults, as write_experiment_csv writes it."""
    spec = ExperimentSpec(mode=mode)
    cells = run_experiment(spec)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_experiment_csv(spec, cells, path)
        return path.read_bytes()


def _rows(data: bytes) -> list[dict]:
    lines = data.decode().splitlines()
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


def _relative_move(a: str, b: str) -> float:
    """|b - a| / |a| of two fields; inf where a is 0 or a field is not a number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    return abs(y - x) / abs(x) if x else math.inf


def largest_moves(pinned: bytes, fresh: bytes) -> list[str]:
    """One line per column that moved: its largest relative move and that row."""
    old, new = _rows(pinned), _rows(fresh)
    if len(old) != len(new) or old[0].keys() != new[0].keys():
        return [f"layout changed: {len(old)} -> {len(new)} rows, columns {list(new[0])}"]
    lines = []
    for col in old[0]:
        move, row = max(
            ((_relative_move(a[col], b[col]), i) for i, (a, b) in enumerate(zip(old, new))),
            key=lambda m: m[0],
        )
        if move:
            key = ",".join(old[row][k] for k in _ROW_KEYS if k in old[row])
            lines.append(f"{col}: largest relative move {move:.3g} ({key})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="write the tables instead of comparing"
    )
    parser.add_argument(
        "--tables", type=Path, default=TABLES, help="directory of the pinned tables"
    )
    args = parser.parse_args(argv)
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    differs = False
    for mode in MODES:
        pinned_path, fresh = args.tables / f"{mode}.csv", table_bytes(mode)
        if args.update:
            args.tables.mkdir(exist_ok=True)
            pinned_path.write_bytes(fresh)
            print(f"{mode}: wrote {pinned_path}")
            continue
        pinned = pinned_path.read_bytes()
        if pinned == fresh:
            print(f"{mode}: identical")
            continue
        differs = True
        print(f"{mode}: DIFFERS from {pinned_path}")
        moves = largest_moves(pinned, fresh) or ["no field moved; comment lines differ"]
        for line in moves:
            print("  " + line)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
