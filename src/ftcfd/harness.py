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
from collections import Counter
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
    """Everything needed to rerun an experiment deterministically.

    The fields, in order, are the ``# key=value`` lines of the result table,
    and their defaults are the defaults of every experiment option.
    """

    mode: str = MODE_BIAS_VARIANCE
    kinds: tuple = KINDS
    n: tuple = (50, 150, 250, 500)
    replications: int = 200
    p: int = 501
    J_max: int = 51
    alpha: float = 0.05
    R: int = 1000
    seed: int = 0
    targets: tuple = ("mean", "cov")

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ArgumentError(f"unknown mode {self.mode!r}")
        if self.replications < 1:
            raise ArgumentError("replications must be >= 1")
        if not self.kinds or any(k not in KINDS for k in self.kinds):
            raise ArgumentError(f"kinds must be drawn from {KINDS}")
        if not self.n or any(n < 2 for n in self.n):
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


def _draw(task):
    spec, kind, n, rep = task
    sample, _, _ = draw_sample(DgpConfig(kind, n=n, p=spec.p, seed=(spec.seed, rep)))
    return sample


def _bias_variance_rep(task):
    targets = task[0].targets
    m = estimators.moments(_draw(task))
    out = {}
    if "mean" in targets:
        out["mean_classical"] = m.mu[0]
        out["mean_ftc"] = estimators.ftc_mean(m).values
    if "cov" in targets:
        classical, ftc = estimators.cov_pair(m)
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

    def summarize(self, truth, reps, h):
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
            for _ in range(a.ndim):  # last axis first
                a = np.trapezoid(a, dx=h)
            return float(a)

        excluded = 1.0 - included.mean()
        return integrate(bias_sq), integrate(var), float(excluded)


def _bias_variance_cells(spec, kind, n, rep_outs):
    """Integrated squared bias and variance per (target, estimator)."""
    pts = np.linspace(0.0, 1.0, spec.p)
    truth = {
        t: true_mean(pts, kind) if t == "mean" else true_cov(pts, pts, kind)
        for t in spec.targets
    }
    accs = {
        (t, est): _Accumulator(truth[t].shape)
        for t in spec.targets
        for est in ("classical", "ftc")
    }
    for rep_out in rep_outs:
        for (t, est), acc in accs.items():
            acc.add(rep_out[f"{t}_{est}"])
    h = pts[1] - pts[0]
    return [
        BiasVarianceCell(
            kind, n, est, t, *acc.summarize(truth[t], spec.replications, h),
            degenerate=spec.replications == 1,
        )
        for (t, est), acc in accs.items()
    ]


def _test_selection_rep(task):
    spec, _, _, rep = task
    return classify_and_test(
        _draw(task), J_max=spec.J_max, alpha=spec.alpha, R=spec.R,
        seed=_rep_seed(spec.seed, rep),
    ).outcome


def _test_selection_cells(spec, kind, n, outcomes):
    """Null / V / Other classification percentages."""
    counts = Counter(outcomes)
    scale = 100.0 / spec.replications
    pcts = (counts[o] * scale for o in (OUTCOME_NULL, OUTCOME_V, OUTCOME_OTHER))
    return [SelectionCell(kind, n, *pcts)]


# mode -> (replication function, reducer of one (kind, n) cell's replications)
_MODES = {
    MODE_BIAS_VARIANCE: (_bias_variance_rep, _bias_variance_cells),
    MODE_TEST_SELECTION: (_test_selection_rep, _test_selection_cells),
}


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every (kind, n) cell of the spec's mode, in spec order."""
    rep_fn, cells_fn = _MODES[spec.mode]
    cells = []
    for kind in spec.kinds:
        for n in spec.n:
            tasks = [(spec, kind, n, rep) for rep in range(spec.replications)]
            cells += cells_fn(spec, kind, n, _map_ordered(rep_fn, tasks))
    return ExperimentResult(spec, tuple(cells))
