"""The three benchmark workloads and the checks on their outputs.

Every operation goes through ``ftcfd.cli.main``, the one entry point that
refactors of the library keep stable. Each workload knows how to make its
inputs from a seed, which ``cli.main`` calls make one operation, which calls
warm a fresh process up, and how to check what the program wrote.

This module imports neither numpy nor ftcfd at import time, so the set-up
probe can time a cold ``import ftcfd.cli`` after loading it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import time

OUTCOMES = ("Null", "V", "Other")

# Tolerance of the stored-reference comparison, relative to the largest
# magnitude in the compared vector.
REF_RTOL = 1e-10


class CliFailure(Exception):
    """cli.main returned a non-zero exit code."""


class OpFailed(Exception):
    """Some calls of an operation failed; the operation still ran all of them."""

    def __init__(self, errors):
        super().__init__(errors[0][1])
        self.errors = errors  # (error class, first message line) per failed call


def error_pair(exc):
    lines = str(exc).splitlines()
    return type(exc).__name__, lines[0] if lines else ""


class CallTimer:
    """Times the CLI calls of one operation, recording failures and going on."""

    def __init__(self):
        self.parts = {}
        self.errors = []

    def call(self, label, argv):
        t0 = time.perf_counter()
        try:
            call_cli(argv)
        except Exception as exc:  # one failed call must not stop the operation
            self.errors.append(error_pair(exc))
        else:
            self.parts[label] = time.perf_counter() - t0

    def result(self):
        if self.errors:
            raise OpFailed(self.errors)
        return {"wall": sum(self.parts.values()), "parts": self.parts}


def call_cli(argv):
    """Run ``ftcfd.cli.main(argv)``; stdout is dropped, stderr kept for errors.

    ``main`` is looked up on the module at call time so a tracer's rebinding
    takes effect.
    """
    import ftcfd.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ftcfd.cli.main(list(argv))
    if rc != 0:
        lines = err.getvalue().strip().splitlines()
        raise CliFailure(f"{argv[0]} exit {rc}: {lines[0] if lines else ''}")


def _num(cell):
    return math.nan if cell == "" else float(cell)


def read_grid_csv(path):
    """(header cells, rows of floats) of a grid-indexed CSV; '' reads as NaN."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return rows[0], [[_num(c) for c in r] for r in rows[1:]]


def read_experiment_csv(path):
    """Rows (dicts) of an experiment table, skipping the '#' metadata lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def compare_reference(ref, got, where=""):
    """Errors where `got` differs from the stored reference `ref`.

    Lists of numbers compare within REF_RTOL of the list's largest magnitude
    (None stands for an undefined cell and must match exactly); everything
    else compares equal.
    """
    errors = []
    if isinstance(ref, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(got)} != reference {sorted(ref)}"]
        for key in ref:
            errors += compare_reference(ref[key], got[key], f"{where}/{key}")
    elif isinstance(ref, list) and ref and all(isinstance(x, (float, int)) or x is None for x in ref):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != reference {len(ref)}"]
        scale = max([abs(x) for x in ref if x is not None] or [0.0])
        for k, (a, b) in enumerate(zip(ref, got)):
            if (a is None) != (b is None) or (
                a is not None and abs(a - b) > REF_RTOL * max(scale, 1e-300)
            ):
                errors.append(f"{where}[{k}]: {b!r} != reference {a!r}")
                break
    elif ref != got:
        errors.append(f"{where}: {got!r} != reference {ref!r}")
    return errors


def _json_floats(values):
    return [None if math.isnan(v) else v for v in values]


class Workload:
    name = ""
    workers = 1  # FTCFD_WORKERS for the workload's own runs
    reps_per_op = 1

    def __init__(self, work_dir, seed, tiny=False):
        self.work = work_dir
        self.seed = seed
        self.tiny = tiny
        self._summary = None
        os.makedirs(work_dir, exist_ok=True)

    def prepare(self):
        """Make the inputs from the seed (not part of any timing)."""

    def warmup_argvs(self):
        raise NotImplementedError

    def run_op(self, i):
        """Run operation i; return {"wall": s, "parts": {call label: s}}."""
        raise NotImplementedError

    def check_op(self, i):
        """Check the outputs of operation i; return a list of error strings."""
        raise NotImplementedError

    def reference_summary(self):
        """Summary of the last checked operation for the stored reference."""
        return self._summary


class AnalyzeFiles(Workload):
    """estimate --fpc-scores, then test, on each of three sample CSVs."""

    name = "analyze_files"
    reps_per_op = 3  # files analysed per round

    # (dgp, n, p, extra estimate arguments); DepDis goes through the
    # explicit-anchor estimators.
    FILES = (
        ("DepCon", 500, 501, ()),
        ("IndCon", 250, 201, ()),
        ("DepDis", 150, 501, ("--d-f", "0.25")),
    )
    TINY_FILES = (
        ("DepCon", 60, 41, ()),
        ("IndCon", 40, 31, ()),
        ("DepDis", 30, 41, ("--d-f", "0.25")),
    )
    EST_FILES = (
        "mean_classical.csv",
        "mean_ftc.csv",
        "cov_classical.csv",
        "cov_ftc.csv",
        "fpc_scores.csv",
    )

    def __init__(self, work_dir, seed, tiny=False):
        super().__init__(work_dir, seed, tiny)
        self.files = self.TINY_FILES if tiny else self.FILES
        self.j_max, self.R = ("11", "200") if tiny else ("51", "1000")
        self.inputs = {}
        self._baseline = None  # digests and report of the first checked round

    def _in(self, kind):
        return os.path.join(self.work, "in", f"{kind}.csv")

    def _out(self, kind):
        return os.path.join(self.work, "out", kind)

    def prepare(self):
        from ftcfd.io import read_sample_csv

        os.makedirs(os.path.join(self.work, "in"), exist_ok=True)
        for kind, n, p, _ in self.files:
            path = self._in(kind)
            call_cli(["simulate", "--dgp", kind, "--n", str(n), "--p", str(p),
                      "--seed", str(self.seed), "--out", path])
            sample = read_sample_csv(path)
            if sample.values.shape != (n, p):
                raise ValueError(f"{path}: parsed shape {sample.values.shape} != {(n, p)}")
            full = sample.mask.all(axis=0)
            self.inputs[kind] = {
                "n": n,
                "grid": [float(t) for t in sample.grid.points],
                "full": [bool(f) for f in full],
            }

    def warmup_argvs(self):
        kind = "IndCon"
        out = os.path.join(self.work, "warmup")
        return [
            ["estimate", self._in(kind), "--out", out, "--fpc-scores"],
            ["test", self._in(kind), "--j-max", self.j_max, "--bootstrap", self.R,
             "--seed", str(self.seed), "--out", os.path.join(out, "report.txt")],
        ]

    def run_op(self, i):
        calls = CallTimer()
        for kind, _, _, extra in self.files:
            out = self._out(kind)
            calls.call(f"estimate/{kind}",
                       ["estimate", self._in(kind), "--out", out, "--fpc-scores", *extra])
            calls.call(f"test/{kind}",
                       ["test", self._in(kind), "--j-max", self.j_max, "--bootstrap", self.R,
                        "--seed", str(self.seed), "--out", os.path.join(out, "report.txt")])
        return calls.result()

    def _report_fields(self, kind):
        rep = read_report(os.path.join(self._out(kind), "report.txt"))
        return {k: rep.get(k) for k in ("outcome", "J", "rejected", "p_values")}

    def check_op(self, i):
        if self._baseline is not None:
            return self._check_repeat()
        errors, baseline, summary = [], {}, {}
        for kind, _, _, _ in self.files:
            errs, summ = self._check_full(kind)
            errors += [f"{kind}: {e}" for e in errs]
            summary[kind] = summ
            baseline[kind] = (
                {f: _digest(os.path.join(self._out(kind), f)) for f in self.EST_FILES},
                self._report_fields(kind),
            )
        if not errors:
            self._baseline, self._summary = baseline, summary
        return errors

    def _check_repeat(self):
        """Later rounds see the same inputs, so outputs must repeat exactly."""
        errors = []
        for kind, (digests, report) in self._baseline.items():
            for f, d in digests.items():
                if _digest(os.path.join(self._out(kind), f)) != d:
                    errors.append(f"{kind}/{f} differs from the first round")
            if self._report_fields(kind) != report:
                errors.append(f"{kind}/report.txt differs from the first round")
        return errors

    def _check_full(self, kind):
        import numpy as np

        info = self.inputs[kind]
        grid, full, n = info["grid"], info["full"], info["n"]
        p = len(grid)
        out = self._out(kind)
        errors = []
        means = {}
        for est in ("classical", "ftc"):
            header, rows = read_grid_csv(os.path.join(out, f"mean_{est}.csv"))
            if header != ["t", "mean"] or len(rows) != p or [r[0] for r in rows] != grid:
                errors.append(f"mean_{est}.csv: bad header or grid")
                continue
            means[est] = [r[1] for r in rows]
        if len(means) == 2:
            block = [j for j in range(p) if full[j]]
            if not block:
                errors.append("no fully observed grid point")
            if any(
                not math.isfinite(means["ftc"][j]) or means["ftc"][j] != means["classical"][j]
                for j in block
            ):
                errors.append("ftc mean != classical mean on the fully observed block")
        covs = {}
        for est in ("classical", "ftc"):
            header, rows = read_grid_csv(os.path.join(out, f"cov_{est}.csv"))
            if (
                header[0] != "s"
                or [float(t) for t in header[1:]] != grid
                or len(rows) != p
                or [r[0] for r in rows] != grid
                or any(len(r) != p + 1 for r in rows)
            ):
                errors.append(f"cov_{est}.csv: bad header, grid or shape")
                continue
            c = np.array([r[1:] for r in rows])
            covs[est] = c
            undefined = np.isnan(c)
            scale = np.abs(c[~undefined]).max(initial=0.0)
            if not np.array_equal(undefined, undefined.T) or np.any(
                np.abs(np.where(undefined, 0.0, c - c.T)) > 1e-10 * scale
            ):
                errors.append(f"cov_{est}.csv is not symmetric")
        with open(os.path.join(out, "fpc_scores.csv"), newline="", encoding="utf-8") as fh:
            first = fh.readline()
            score_rows = [r for r in csv.reader(fh) if r][1:]
        explained = [float(x) for x in first.strip().split("=", 1)[1].split(",") if x]
        if (
            not first.startswith("# explained=")
            or not explained
            or abs(sum(explained) - 1.0) > 1e-9
            or any(b > a for a, b in zip(explained, explained[1:]))
            or len(score_rows) != n
        ):
            errors.append("fpc_scores.csv: explained fractions or score rows are wrong")
        report = self._report_fields(kind)
        if report["outcome"] not in OUTCOMES:
            errors.append(f"test outcome {report['outcome']!r} not in {OUTCOMES}")
        summary = {
            "mean_classical": _json_floats(means.get("classical", [])),
            "mean_ftc": _json_floats(means.get("ftc", [])),
            "fpc_explained": explained,
            "test": report,
        }
        for est, c in covs.items():
            summary[f"cov_{est}_rowsum"] = [float(x) for x in np.nansum(c, axis=1)]
            summary[f"cov_{est}_undefined"] = int(np.isnan(c).sum())
        return errors, summary


class _Experiment(Workload):
    """One ``experiment`` call per (dgp, n) cell, four cells per operation.

    Each replication's draw depends only on (seed, replication), so the four
    one-cell tables equal the table of one call over all cells. Separate
    calls keep a failing cell from hiding the others and time each cell.
    """

    mode = ""
    kinds = ("DepDis", "IndCon")
    NUMERIC_SUFFIXES = ("_pct", "_bias", "_variance", "_fraction")

    def __init__(self, work_dir, seed, tiny=False):
        super().__init__(work_dir, seed, tiny)
        self.n_values, self.p, self.reps = self.TINY if tiny else self.FULL
        self.cells = [(k, n) for k in self.kinds for n in self.n_values]
        self.reps_per_op = self.reps * len(self.cells)

    def op_seed(self, i):
        return self.seed * 1_000_000 + i

    def _out(self, kind, n):
        return os.path.join(self.work, f"{kind}-{n}.csv")

    def argv(self, seed, kind, n, reps, out):
        return [
            "experiment", "--mode", self.mode, "--dgp", kind, "--n", str(n),
            "--p", str(self.p), "--reps", str(reps), "--seed", str(seed),
            *self.extra_args(), "--out", out,
        ]

    def warmup_argvs(self):
        return [self.argv(self.seed, "IndCon", self.n_values[0], self.WARMUP_REPS,
                          os.path.join(self.work, "warmup.csv"))]

    def run_op(self, i):
        calls = CallTimer()
        for kind, n in self.cells:
            calls.call(f"experiment/{kind},{n}",
                       self.argv(self.op_seed(i), kind, n, self.reps, self._out(kind, n)))
        return calls.result()

    def check_op(self, i):
        rows = [r for kind, n in self.cells for r in read_experiment_csv(self._out(kind, n))]
        errors = self.check_rows(rows, [(k, str(n)) for k, n in self.cells])
        columns = {k: [r[k] for r in rows] for k in (rows[0] if rows else {})}
        for k in columns:
            if k.endswith(self.NUMERIC_SUFFIXES):
                columns[k] = [float(v) for v in columns[k]]
        self._summary = {"seed": self.op_seed(i), "columns": columns}
        return errors


class McTestSelection(_Experiment):
    name = "mc_test_selection"
    mode = "test_selection"
    FULL = ((150, 500), 501, 4)  # n values, p, reps per cell per operation
    TINY = ((60, 100), 101, 1)
    WARMUP_REPS = 1

    def extra_args(self):
        return ["--j-max", "11" if self.tiny else "51",
                "--bootstrap", "200" if self.tiny else "1000"]

    def check_rows(self, rows, want):
        errors = []
        if [(r["dgp"], r["n"]) for r in rows] != want:
            return [f"cells {[(r['dgp'], r['n']) for r in rows]} != {want}"]
        for r in rows:
            pct = [float(r[k]) for k in ("null_pct", "v_pct", "other_pct")]
            if any(not 0.0 <= x <= 100.0 for x in pct) or abs(sum(pct) - 100.0) > 1e-9:
                errors.append(f"{r['dgp']},{r['n']}: percentages {pct} do not sum to 100")
        return errors


class McBiasVariance(_Experiment):
    name = "mc_bias_variance"
    mode = "bias_variance"
    workers = 2
    FULL = ((150, 500), 501, 24)
    TINY = ((150, 200), 101, 4)
    WARMUP_REPS = 2

    def extra_args(self):
        return ["--targets", "mean,cov"]

    def check_rows(self, rows, want):
        import numpy as np
        from ftcfd.dgp import analytic_bias_dep_dis

        cells = [(k, n, e, t) for k, n in want for t in ("mean", "cov") for e in ("classical", "ftc")]
        got = [(r["dgp"], r["n"], r["estimator"], r["target"]) for r in rows]
        if got != cells:
            return [f"cells {got} != {cells}"]
        isb = {}
        errors = []
        for r in rows:
            vals = [float(r[k]) for k in ("int_sq_bias", "int_variance", "excluded_fraction")]
            if any(not math.isfinite(v) or v < 0 for v in vals):
                errors.append(f"{r['dgp']},{r['n']},{r['estimator']},{r['target']}: bad {vals}")
            isb[(r["dgp"], r["n"], r["estimator"], r["target"])] = vals[0]
        # Truth from ftcfd.dgp: the classical mean's integrated squared bias
        # under DepDis. The margins are several times the spread seen over
        # many seeds, so only a broken estimator or harness trips them.
        t = np.linspace(0.0, 1.0, self.p)
        truth = float(np.trapezoid(analytic_bias_dep_dis(t) ** 2, t))
        for n in self.n_values:
            key = ("DepDis", str(n))
            cm, fm = isb[key + ("classical", "mean")], isb[key + ("ftc", "mean")]
            cc, fc = isb[key + ("classical", "cov")], isb[key + ("ftc", "cov")]
            if not 0.4 * truth < cm < 2.5 * truth:
                errors.append(f"DepDis,{n}: classical mean ISB {cm} far from dgp truth {truth}")
            if not 5.0 * fm < cm:
                errors.append(f"DepDis,{n}: ftc mean ISB {fm} not far below classical {cm}")
            if not fc < cc:
                errors.append(f"DepDis,{n}: ftc cov ISB {fc} not below classical {cc}")
        return errors


WORKLOADS = {w.name: w for w in (AnalyzeFiles, McTestSelection, McBiasVariance)}
