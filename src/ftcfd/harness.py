"""Monte-Carlo experiment runner.

Two experiment modes mirror the two summary tables: bias_variance computes
integrated squared bias and integrated variance of the classical and
back-transform estimators over replicated draws; test_selection tabulates
how often the stepdown test classifies each design as Null / V / Other.
Both are deterministic given the spec: per-replication seeds are derived
from the base seed and the replication index, each pool task is a fixed
chunk of ``_CHUNK`` consecutive replications, and aggregation is ordered by
task, not by replication (a chunk's replications are summed first, then the
chunks in task order). So results, and the tables
``io.write_experiment_csv`` makes of them, are byte-identical across runs
and across worker counts. Symmetric accumulators (both covariances) ship
as one triangle, mirrored back before integrating.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from . import estimators
from .basis import check_J_max
from .core import check_grid_size, check_seed
from .dgp import KINDS, draw_sample, true_cov, true_mean
from .errors import ArgumentError, FtcfdError
from .mcar import (
    OUTCOME_NULL,
    OUTCOME_OTHER,
    OUTCOME_V,
    check_alpha,
    check_R,
    classify_and_test,
)

WORKERS_ENV = "FTCFD_WORKERS"

MODE_BIAS_VARIANCE = "bias_variance"
MODE_TEST_SELECTION = "test_selection"

# A grid point enters the bias/variance integrals only if the estimate is
# defined there in at least this fraction of replications.
_DEFINED_FRACTION = 0.5

# Replications per pool task, whatever the worker count. A bias_variance
# task returns one set of accumulators for all of them, so the parent
# receives and merges p x p arrays once per chunk, not once per replication.
# At most 255, so that a chunk's counts fit in uint8.
_CHUNK = 12


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
        if len(set(self.kinds)) < len(self.kinds):
            raise ArgumentError(f"repeated kinds {list(self.kinds)}")
        if not self.n or any(n < 2 for n in self.n):
            raise ArgumentError("n values must be >= 2")
        if len(set(self.n)) < len(self.n):
            raise ArgumentError(f"repeated n values {list(self.n)}")
        check_grid_size(self.p)
        check_seed(self.seed)
        if self.mode == MODE_TEST_SELECTION:
            check_J_max(self.J_max)
            check_alpha(self.alpha)
            check_R(self.R)
        if not self.targets:
            raise ArgumentError("targets must name at least one of mean, cov")
        bad = [t for t in self.targets if t not in ("mean", "cov")]
        if bad:
            raise ArgumentError(f"unknown targets {bad}")
        if len(set(self.targets)) < len(self.targets):
            raise ArgumentError(f"repeated targets {list(self.targets)}")


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


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        w = int(raw)
    except ValueError:
        raise ArgumentError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    if w < 1:
        raise ArgumentError(f"{WORKERS_ENV} must be >= 1, got {w}")
    return w


def _rep_seed(seed: int, rep: int) -> int:
    """Stable per-replication integer seed derived from (seed, rep)."""
    return int(np.random.SeedSequence((seed, rep)).generate_state(1)[0])


def _replications(rep_fn, task):
    """``rep_fn(spec, sample, rep)`` of each of one task's replications, in order.

    Replication ``rep`` draws its sample with seed ``(spec.seed, rep)``. An
    error in the draw or in ``rep_fn`` is re-raised with the same class, its
    message prefixed by the cell and the replication that failed.
    """
    spec, kind, n, reps = task
    for rep in reps:
        try:
            out = rep_fn(spec, draw_sample(kind, n, spec.p, (spec.seed, rep))[0], rep)
        except FtcfdError as exc:
            raise type(exc)(f"{kind}, n={n}, replication {rep}: {exc}") from exc
        yield out


def _bias_variance_rep(spec, sample, rep):
    m = estimators.moments(sample)
    out = {}
    if "mean" in spec.targets:
        out["mean_classical"] = m.mu[0]
        out["mean_ftc"] = estimators.ftc_mean(m)
    if "cov" in spec.targets:
        out["cov_classical"], out["cov_ftc"] = estimators.cov_pair(m)
    return out


def _upper(p):
    """Upper-triangle mask of p x p arrays: all of a symmetric one, row by row."""
    return np.triu(np.ones((p, p), dtype=bool))


class _Accumulator:
    """Streaming count/sum/sum-of-squares over possibly-undefined arrays.

    Counts start as uint8, which holds for the at most 255 replications of
    one chunk and keeps the chunk's pickled result small; widen them to
    float before merging chunks.
    """

    def __init__(self, shape):
        self.cnt = np.zeros(shape, dtype=np.uint8)
        self.sum = np.zeros(shape)
        self.sumsq = np.zeros(shape)

    def add(self, arr):
        """Accumulate arr in place, consuming it: its cells are overwritten.

        Each replication's arrays are fresh and read by nothing else, so
        this makes no p x p temporaries.
        """
        ok = np.isfinite(arr)
        self.cnt += ok
        arr[~ok] = 0.0
        self.sum += arr
        arr *= arr
        self.sumsq += arr

    def merge(self, other):
        """Add another accumulator's count, sum and sum of squares."""
        self.cnt += other.cnt
        self.sum += other.sum
        self.sumsq += other.sumsq

    def unfold(self, p):
        """Mirror upper triangles back to the symmetric p x p arrays."""
        upper, tris = _upper(p), (self.cnt, self.sum, self.sumsq)
        self.cnt, self.sum, self.sumsq = (np.empty((p, p), t.dtype) for t in tris)
        for full, tri in zip((self.cnt, self.sum, self.sumsq), tris):
            full[upper] = full.T[upper] = tri

    def summarize(self, truth, reps, h):
        included = self.cnt >= max(_DEFINED_FRACTION * reps, 1.0)
        # Every included cell has cnt >= 1, and there the variance is exactly
        # 0 at cnt == 1; the excluded cells are zeroed below.
        cnt = np.maximum(self.cnt, 1)
        mean = self.sum / cnt
        var = np.clip((self.sumsq - cnt * mean**2) / np.maximum(self.cnt - 1, 1), 0.0, None)
        bias_sq = np.where(included, (mean - truth) ** 2, 0.0)
        var = np.where(included, var, 0.0)

        def integrate(a):
            for _ in range(a.ndim):  # last axis first
                a = np.trapezoid(a, dx=h)
            return float(a)

        excluded = 1.0 - included.mean()
        return integrate(bias_sq), integrate(var), float(excluded)


def _bias_variance_chunk(task):
    """One chunk's accumulators, keyed ``<target>_<estimator>``, cov as triangles."""
    accs, upper = {}, _upper(task[0].p)
    for out in _replications(_bias_variance_rep, task):
        for key, arr in out.items():
            if key.startswith("cov"):
                arr = arr[upper]  # exactly symmetric: the triangle holds it all
            if key not in accs:
                accs[key] = _Accumulator(arr.shape)
            accs[key].add(arr)
    return accs


def _bias_variance_cells(spec, kind, n, chunks):
    """Integrated squared bias and variance per (target, estimator).

    The first chunk's accumulators become the cell's, counts widened to
    float; every later chunk is added in task order, and then cov unfolded.
    """
    chunks = iter(chunks)
    accs = next(chunks)
    for acc in accs.values():
        acc.cnt = acc.cnt.astype(float)
    for chunk in chunks:
        for key, acc in accs.items():
            acc.merge(chunk[key])
    for key, acc in accs.items():
        if key.startswith("cov"):
            acc.unfold(spec.p)
    pts = np.linspace(0.0, 1.0, spec.p)
    h = pts[1] - pts[0]
    cells = []
    for t in spec.targets:
        truth = true_mean(pts, kind) if t == "mean" else true_cov(pts, pts, kind)
        for est in ("classical", "ftc"):
            cells.append(BiasVarianceCell(
                kind, n, est, t, *accs[f"{t}_{est}"].summarize(truth, spec.replications, h),
                degenerate=spec.replications == 1,
            ))
    return cells


def _test_selection_rep(spec, sample, rep):
    return classify_and_test(
        sample, J_max=spec.J_max, alpha=spec.alpha, R=spec.R,
        seed=_rep_seed(spec.seed, rep),
    ).outcome


def _test_selection_chunk(task):
    return list(_replications(_test_selection_rep, task))


def _test_selection_cells(spec, kind, n, chunks):
    """Null / V / Other classification percentages."""
    counts = Counter(outcome for chunk in chunks for outcome in chunk)
    scale = 100.0 / spec.replications
    pcts = (counts[o] * scale for o in (OUTCOME_NULL, OUTCOME_V, OUTCOME_OTHER))
    return [SelectionCell(kind, n, *pcts)]


# mode -> (function of one task, reducer of one (kind, n) cell's task results)
_MODES = {
    MODE_BIAS_VARIANCE: (_bias_variance_chunk, _bias_variance_cells),
    MODE_TEST_SELECTION: (_test_selection_chunk, _test_selection_cells),
}


def run_experiment(spec: ExperimentSpec) -> tuple:
    """The cells of every (kind, n) of the spec's mode, in spec order.

    Each cell's replications are split into tasks of ``_CHUNK`` (the last
    one ragged). With more than one worker, a single process pool serves
    every cell; its ordered map, over the same tasks as a sequential run,
    keeps the results independent of the worker count. The pool starts no
    more workers than the run has tasks.
    """
    task_fn, cells_fn = _MODES[spec.mode]
    workers = _worker_count()
    n_tasks = len(spec.kinds) * len(spec.n) * -(-spec.replications // _CHUNK)
    with ExitStack() as stack:
        mapper = map
        if workers > 1:
            pool = ProcessPoolExecutor(max_workers=min(workers, n_tasks))
            mapper = stack.enter_context(pool).map
        cells = []
        for kind in spec.kinds:
            for n in spec.n:
                tasks = [
                    (spec, kind, n, range(start, min(start + _CHUNK, spec.replications)))
                    for start in range(0, spec.replications, _CHUNK)
                ]
                cells += cells_fn(spec, kind, n, mapper(task_fn, tasks))
    return tuple(cells)
