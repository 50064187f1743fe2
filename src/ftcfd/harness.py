"""Monte-Carlo experiment runner.

Two experiment modes mirror the two summary tables: bias_variance computes
integrated squared bias and integrated variance of the classical and
back-transform estimators over replicated draws; test_selection tabulates
how often the stepdown test classifies each design as Null / V / Other.
Both are deterministic given the spec (per-replication seeds are derived
from the base seed and the replication index, and aggregation is ordered
by index), so results, and the tables ``io.write_experiment_csv`` makes of
them, are byte-identical across runs and across worker counts.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import estimators
from .dgp import KINDS, DgpConfig, draw_sample, true_cov, true_mean
from .errors import ArgumentError
from .mcar import OUTCOME_NULL, OUTCOME_OTHER, OUTCOME_V, classify_and_test

WORKERS_ENV = "FTCFD_WORKERS"

MODE_BIAS_VARIANCE = "bias_variance"
MODE_TEST_SELECTION = "test_selection"

# A grid point enters the bias/variance integrals only if the estimate is
# defined there in at least this fraction of replications.
_DEFINED_FRACTION = 0.5


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to rerun an experiment deterministically."""

    mode: str
    kinds: tuple
    n_values: tuple
    replications: int
    p: int = 501
    J_max: int = 51
    alpha: float = 0.05
    R: int = 1000
    seed: int = 0
    targets: tuple = ("mean", "cov")

    def __post_init__(self):
        if self.mode not in (MODE_BIAS_VARIANCE, MODE_TEST_SELECTION):
            raise ArgumentError(f"unknown mode {self.mode!r}")
        if self.replications < 1:
            raise ArgumentError("replications must be >= 1")
        if not self.kinds or any(k not in KINDS for k in self.kinds):
            raise ArgumentError(f"kinds must be drawn from {KINDS}")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ArgumentError("n values must be >= 2")
        if self.mode == MODE_TEST_SELECTION and self.J_max % 2 == 0:
            raise ArgumentError("J_max must be odd in test_selection mode")
        bad = [t for t in self.targets if t not in ("mean", "cov")]
        if bad:
            raise ArgumentError(f"unknown targets {bad}")


@dataclass(frozen=True)
class BiasVarianceCell:
    kind: str
    n: int
    estimator: str  # classical | ftc
    target: str  # mean | cov
    int_sq_bias: float
    int_variance: float
    excluded_fraction: float
    degenerate: bool = False


@dataclass(frozen=True)
class SelectionCell:
    kind: str
    n: int
    null_pct: float
    v_pct: float
    other_pct: float


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    cells: tuple
    elapsed_seconds: float


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        w = int(raw)
    except ValueError:
        raise ArgumentError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    return max(w, 1)


def _map_ordered(fn, tasks):
    """Apply fn over tasks, in parallel if requested, preserving order."""
    workers = _worker_count()
    if workers == 1:
        yield from map(fn, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, tasks)


def _rep_seed(seed: int, rep: int) -> int:
    """Stable per-replication integer seed derived from (seed, rep)."""
    return int(np.random.SeedSequence((seed, rep)).generate_state(1)[0])


def _bias_variance_rep(task):
    kind, n, p, seed, rep, targets = task
    sample, _, _ = draw_sample(DgpConfig(kind, n=n, p=p, seed=(seed, rep)))
    out = {}
    if "mean" in targets:
        out["mean_classical"] = estimators.mean_est(sample, 0).values
        out["mean_ftc"] = estimators.ftc_mean(sample).values
    if "cov" in targets:
        classical, ftc = estimators.cov_pair(sample)
        out["cov_classical"], out["cov_ftc"] = classical.values, ftc.values
    return out


class _Accumulator:
    """Streaming count/sum/sum-of-squares over possibly-undefined arrays."""

    def __init__(self, shape):
        self.cnt = np.zeros(shape)
        self.sum = np.zeros(shape)
        self.sumsq = np.zeros(shape)

    def add(self, arr):
        ok = np.isfinite(arr)
        v = np.where(ok, arr, 0.0)
        self.cnt += ok
        self.sum += v
        self.sumsq += v * v

    def summarize(self, truth, reps, h, double):
        included = self.cnt >= max(_DEFINED_FRACTION * reps, 1.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(self.cnt > 0, self.sum / np.maximum(self.cnt, 1), np.nan)
            var = (self.sumsq - np.maximum(self.cnt, 1) * mean**2) / np.maximum(
                self.cnt - 1, 1
            )
        var = np.clip(np.where(self.cnt > 1, var, 0.0), 0.0, None)
        bias_sq = np.where(included, (mean - truth) ** 2, 0.0)
        var = np.where(included, var, 0.0)

        def integrate(a):
            if double:
                return float(np.trapezoid(np.trapezoid(a, dx=h, axis=1), dx=h))
            return float(np.trapezoid(a, dx=h))

        excluded = 1.0 - included.mean()
        return integrate(bias_sq), integrate(var), float(excluded)


def run_bias_variance(spec: ExperimentSpec) -> ExperimentResult:
    """Integrated squared bias and variance per (dgp, n, estimator, target)."""
    if spec.mode != MODE_BIAS_VARIANCE:
        raise ArgumentError(f"spec mode is {spec.mode!r}")
    t0 = time.monotonic()
    pts = np.linspace(0.0, 1.0, spec.p)
    truth = {"mean": true_mean(pts), "cov": true_cov(pts, pts)}
    h = pts[1] - pts[0]
    cells = []
    degenerate = spec.replications == 1
    for kind in spec.kinds:
        for n in spec.n_values:
            accs = {}
            for target in spec.targets:
                shape = (spec.p, spec.p) if target == "cov" else (spec.p,)
                for est in ("classical", "ftc"):
                    accs[f"{target}_{est}"] = _Accumulator(shape)
            tasks = [
                (kind, n, spec.p, spec.seed, rep, spec.targets)
                for rep in range(spec.replications)
            ]
            for rep_out in _map_ordered(_bias_variance_rep, tasks):
                for key, arr in rep_out.items():
                    accs[key].add(arr)
            for target in spec.targets:
                for est in ("classical", "ftc"):
                    isb, ivar, excl = accs[f"{target}_{est}"].summarize(
                        truth[target], spec.replications, h, target == "cov"
                    )
                    cells.append(
                        BiasVarianceCell(
                            kind=kind,
                            n=n,
                            estimator=est,
                            target=target,
                            int_sq_bias=isb,
                            int_variance=ivar,
                            excluded_fraction=excl,
                            degenerate=degenerate,
                        )
                    )
    return ExperimentResult(spec, tuple(cells), time.monotonic() - t0)


def _test_selection_rep(task):
    kind, n, p, seed, rep, J_max, alpha, R = task
    sample, _, _ = draw_sample(DgpConfig(kind, n=n, p=p, seed=(seed, rep)))
    report = classify_and_test(
        sample, J_max=J_max, alpha=alpha, R=R, seed=_rep_seed(seed, rep)
    )
    return report.outcome


def run_test_selection(spec: ExperimentSpec) -> ExperimentResult:
    """Null / V / Other classification percentages per (dgp, n)."""
    if spec.mode != MODE_TEST_SELECTION:
        raise ArgumentError(f"spec mode is {spec.mode!r}")
    t0 = time.monotonic()
    cells = []
    for kind in spec.kinds:
        for n in spec.n_values:
            tasks = [
                (kind, n, spec.p, spec.seed, rep, spec.J_max, spec.alpha, spec.R)
                for rep in range(spec.replications)
            ]
            counts = {OUTCOME_NULL: 0, OUTCOME_V: 0, OUTCOME_OTHER: 0}
            for outcome in _map_ordered(_test_selection_rep, tasks):
                counts[outcome] += 1
            scale = 100.0 / spec.replications
            cells.append(
                SelectionCell(
                    kind=kind,
                    n=n,
                    null_pct=counts[OUTCOME_NULL] * scale,
                    v_pct=counts[OUTCOME_V] * scale,
                    other_pct=counts[OUTCOME_OTHER] * scale,
                )
            )
    return ExperimentResult(spec, tuple(cells), time.monotonic() - t0)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    if spec.mode == MODE_BIAS_VARIANCE:
        return run_bias_variance(spec)
    return run_test_selection(spec)
