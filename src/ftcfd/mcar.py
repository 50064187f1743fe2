"""Stepdown bootstrap test linking observation endpoints to basis coefficients.

Regresses the per-curve endpoint d_i on the subdomain basis coefficients and
runs a Romano-Wolf style stepdown over the J coefficient hypotheses with a
residual (model-based) bootstrap. The rejection set is classified as

  Null  -- nothing rejected: consistent with missing-completely-at-random,
  V     -- only the level coefficient rejected: level-shift dependence,
  Other -- any other rejection pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, project, select_J
from .core import FunctionalSample, summarize_observation
from .errors import ArgumentError, NumericalError

OUTCOME_NULL = "Null"
OUTCOME_V = "V"
OUTCOME_OTHER = "Other"


@dataclass(frozen=True)
class RegressionFit:
    """OLS fit of d on [1, Xi] with homoskedastic standard errors."""

    beta_hat: np.ndarray  # length J+1, intercept first
    se: np.ndarray  # length J+1
    t_sq: np.ndarray  # length J, squared t statistics for beta_1..beta_J
    residuals: np.ndarray
    fitted: np.ndarray


@dataclass(frozen=True)
class TestReport:
    """Stepdown result: rejection set, per-step p-values, classification."""

    rejected: frozenset
    p_values: tuple
    outcome: str
    alpha: float
    R: int
    seed: int
    J: int = 0
    degenerate_response: bool = False

    def serialize(self) -> str:
        """Flat key=value text block for CLI output."""
        lines = [
            f"outcome={self.outcome}",
            f"alpha={self.alpha}",
            f"R={self.R}",
            f"seed={self.seed}",
            f"J={self.J}",
            f"rejected={','.join(str(j) for j in sorted(self.rejected))}",
            f"p_values={','.join('%.6g' % p for p in self.p_values)}",
            f"degenerate_response={str(self.degenerate_response).lower()}",
        ]
        return "\n".join(lines) + "\n"


def _classify(rejected: frozenset) -> str:
    if not rejected:
        return OUTCOME_NULL
    if rejected == frozenset({1}):
        return OUTCOME_V
    return OUTCOME_OTHER


def fit_regression(d: np.ndarray, Xi: np.ndarray) -> RegressionFit:
    """OLS of d on the J coefficient columns plus an intercept."""
    d = np.asarray(d, dtype=float)
    Xi = np.asarray(Xi, dtype=float)
    n, J = Xi.shape
    if d.shape != (n,):
        raise ArgumentError("d must be a length-n vector matching Xi rows")
    if n <= J + 1:
        raise ArgumentError(f"need n > J+1 regressors, got n={n}, J={J}")
    X = np.column_stack([np.ones(n), Xi])
    beta, _, rank, _ = np.linalg.lstsq(X, d, rcond=None)
    if rank < J + 1:
        raise NumericalError(f"rank-deficient regression design (rank {rank})")
    fitted = X @ beta
    resid = d - fitted
    # An exact fit leaves pure round-off in the residuals; snap it to zero
    # so the degenerate case is handled as such rather than amplified by
    # division with a vanishing standard error.
    scale = np.sqrt(np.mean(d * d))
    if np.abs(resid).max() <= 1e-12 * max(scale, 1.0):
        resid = np.zeros(n)
        fitted = d.copy()
    dof = n - J - 1
    sigma2 = resid @ resid / dof
    xtx_inv = np.linalg.inv(X.T @ X)
    se = np.sqrt(sigma2 * np.diag(xtx_inv))
    beta_tol = 1e-10 * max(np.abs(beta).max(), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_sq = np.where(
            se[1:] > 0,
            (beta[1:] / np.where(se[1:] > 0, se[1:], 1.0)) ** 2,
            np.where(np.abs(beta[1:]) > beta_tol, np.inf, 0.0),
        )
    return RegressionFit(beta_hat=beta, se=se, t_sq=t_sq, residuals=resid, fitted=fitted)


def bootstrap_statistics(d, Xi, R: int, seed: int) -> np.ndarray:
    """Residual bootstrap, centered at the original estimates (R x J).

    Resamples residuals with replacement, rebuilds d* = fitted + u*, refits
    on the unchanged design, and forms ((beta*_j - beta_hat_j) / se*_j)^2.
    Degenerate replications with zero residual variance yield 0.
    """
    if R < 100:
        raise ArgumentError(f"R must be >= 100, got {R}")
    d = np.asarray(d, dtype=float)
    Xi = np.asarray(Xi, dtype=float)
    fit = fit_regression(d, Xi)
    n, J = Xi.shape
    if not fit.residuals.any():
        # Exact fit: every resample reproduces d, so all statistics vanish.
        return np.zeros((R, J))
    X = np.column_stack([np.ones(n), Xi])
    xtx_inv = np.linalg.inv(X.T @ X)
    solver = xtx_inv @ X.T  # (J+1) x n
    diag = np.diag(xtx_inv)[1:]
    dof = n - J - 1
    rng = np.random.default_rng(seed)
    resampled = rng.choice(fit.residuals, size=(R, n), replace=True)
    d_star = fit.fitted + resampled  # R x n
    beta_star = d_star @ solver.T  # R x (J+1)
    resid_star = d_star - beta_star @ X.T
    sigma2_star = np.einsum("ij,ij->i", resid_star, resid_star) / dof
    se_star = np.sqrt(sigma2_star[:, None] * diag)  # R x J
    delta = beta_star[:, 1:] - fit.beta_hat[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        t2 = np.where(se_star > 0, (delta / se_star) ** 2, 0.0)
    return t2


def romano_wolf(d, Xi, alpha: float, R: int, seed: int) -> TestReport:
    """Stepdown loop over the J coefficient hypotheses.

    At each step the statistic is the maximum observed squared t over the
    remaining set, compared against the per-replication maximum of the
    bootstrap statistics over the same set; the p-value uses R in the
    denominator with the first R-1 replications plus 1 in the numerator.
    Rejection removes the maximizing hypothesis and the loop continues;
    the first p-value above alpha stops it.
    """
    if not 0 < alpha < 1:
        raise ArgumentError(f"alpha must be in (0, 1), got {alpha}")
    d = np.asarray(d, dtype=float)
    Xi = np.asarray(Xi, dtype=float)
    fit = fit_regression(d, Xi)
    boot = bootstrap_statistics(d, Xi, R, seed)[: R - 1]  # R-1 comparison rows
    J = Xi.shape[1]
    remaining = list(range(1, J + 1))
    rejected = set()
    p_values = []
    while remaining:
        cols = [j - 1 for j in remaining]
        obs = fit.t_sq[cols]
        step_stat = obs.max()
        comparator = boot[:, cols].max(axis=1)
        p = (1.0 + np.count_nonzero(comparator >= step_stat)) / R
        p_values.append(float(p))
        if p > alpha:
            break
        j_star = remaining[int(np.argmax(obs))]
        rejected.add(j_star)
        remaining.remove(j_star)
    rejected = frozenset(rejected)
    return TestReport(
        rejected=rejected,
        p_values=tuple(p_values),
        outcome=_classify(rejected),
        alpha=alpha,
        R=R,
        seed=seed,
        J=J,
    )


def classify_and_test(
    sample: FunctionalSample,
    J_max: int = 51,
    alpha: float = 0.05,
    R: int = 1000,
    seed: int = 0,
) -> TestReport:
    """End-to-end test: basis-size selection, projection, stepdown.

    Requires the interval observation pattern. A constant endpoint vector
    (e.g. a fully observed sample) short-circuits to the Null outcome with
    the degenerate-response flag set.
    """
    summ = summarize_observation(sample)
    if not summ.interval_pattern:
        raise ArgumentError("test requires the interval observation pattern")
    lo = float(sample.grid.points[0])
    if summ.d_min is None or not summ.d_min > lo:
        raise ArgumentError("fully observed subdomain must extend beyond t_1")
    if np.ptp(summ.d_i) == 0.0:
        return TestReport(
            rejected=frozenset(),
            p_values=(),
            outcome=OUTCOME_NULL,
            alpha=alpha,
            R=R,
            seed=seed,
            J=0,
            degenerate_response=True,
        )
    subdomain = (lo, summ.d_min)
    # Basis rescaled to the full grid domain: keeps finite-dimensional
    # curves finite-dimensional on the subdomain, which the BIC sweep and
    # the regression design both rely on.
    basis_domain = (lo, float(sample.grid.points[-1]))
    J = select_J(sample, subdomain, J_max, basis_domain=basis_domain)
    proj = project(sample, BasisSpec(J, basis_domain), subdomain)
    return romano_wolf(summ.d_i, proj.coefficients, alpha, R, seed)
