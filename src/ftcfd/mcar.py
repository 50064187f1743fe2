"""Stepdown bootstrap test linking observation endpoints to basis coefficients.

Regresses the per-curve endpoint d_i on the subdomain basis coefficients and
runs a Romano-Wolf style stepdown over the J coefficient hypotheses with a
residual (model-based) bootstrap. The rejection set is classified as

  Null  -- nothing rejected: consistent with missing-completely-at-random,
  V     -- only the level coefficient rejected: level-shift dependence,
  Other -- any other rejection pattern.

Two factorisations serve one test: the basis QR inside select_J yields the
coefficients, and one QR of the regression design X = [1, Xi] = Q R yields
the estimates, their standard errors and every bootstrap replication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import check_J_max, select_J
from .core import FunctionalSample, check_seed, fully_observed_prefix
from .errors import ArgumentError, NumericalError

OUTCOME_NULL = "Null"
OUTCOME_V = "V"
OUTCOME_OTHER = "Other"

# Bootstrap replications drawn and reduced at a time.
_BLOCK = 100


@dataclass(frozen=True)
class RegressionFit:
    """OLS fit of d on X = [1, Xi] = Q R with homoskedastic standard errors."""

    beta_hat: np.ndarray  # length J+1, intercept first
    se: np.ndarray  # length J+1
    t_sq: np.ndarray  # length J, squared t statistics for beta_1..beta_J
    residuals: np.ndarray
    q: np.ndarray  # n x (J+1), orthonormal columns
    r_inv: np.ndarray  # (J+1) x (J+1), upper triangular


@dataclass(frozen=True)
class TestReport:
    """Stepdown result: rejection set, per-step p-values, classification."""

    rejected: frozenset
    p_values: tuple
    alpha: float
    R: int
    seed: int
    J: int = 0
    degenerate_response: bool = False

    @property
    def outcome(self) -> str:
        """The rejection set's classification (see the module docstring)."""
        if not self.rejected:
            return OUTCOME_NULL
        return OUTCOME_V if self.rejected == frozenset({1}) else OUTCOME_OTHER

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


def fit_regression(d: np.ndarray, Xi: np.ndarray) -> RegressionFit:
    """OLS of d on the J coefficient columns plus an intercept.

    With X = Q R, beta = R^{-1} Q^T d and diag((X^T X)^{-1}) is the squared
    row norms of R^{-1}. The rank is counted with the rule np.linalg.lstsq
    applies: singular values of R above eps max(n, J+1) times the largest.
    """
    d = np.asarray(d, dtype=float)
    Xi = np.asarray(Xi, dtype=float)
    n, J = Xi.shape
    if d.shape != (n,):
        raise ArgumentError("d must be a length-n vector matching Xi rows")
    if n <= J + 1:
        raise ArgumentError(f"need n > J+1 regressors, got n={n}, J={J}")
    X = np.column_stack([np.ones(n), Xi])
    q, r = np.linalg.qr(X)
    sv = np.linalg.svd(r, compute_uv=False)
    rank = np.count_nonzero(sv > np.finfo(float).eps * max(n, J + 1) * sv[0])
    if rank < J + 1:
        raise NumericalError(f"rank-deficient regression design (rank {rank})")
    # Partial pivoting swaps no rows of a triangular r, so r_inv is triangular.
    r_inv = np.linalg.inv(r)
    beta = r_inv @ (q.T @ d)
    resid = d - X @ beta
    # An exact fit leaves pure round-off in the residuals; snap it to zero
    # so the degenerate case is handled as such rather than amplified by
    # division with a vanishing standard error.
    scale = np.sqrt(np.mean(d * d))
    if np.abs(resid).max() <= 1e-12 * scale:
        resid = np.zeros(n)
    dof = n - J - 1
    sigma2 = resid @ resid / dof
    se = np.sqrt(sigma2 * np.einsum("ij,ij->i", r_inv, r_inv))
    beta_tol = 1e-10 * np.abs(beta).max()
    with np.errstate(divide="ignore", invalid="ignore"):
        t_sq = np.where(
            se[1:] > 0,
            (beta[1:] / np.where(se[1:] > 0, se[1:], 1.0)) ** 2,
            np.where(np.abs(beta[1:]) > beta_tol, np.inf, 0.0),
        )
    return RegressionFit(
        beta_hat=beta, se=se, t_sq=t_sq, residuals=resid, q=q, r_inv=r_inv
    )


def check_alpha(alpha: float) -> None:
    """Reject a stepdown level outside (0, 1)."""
    if not 0 < alpha < 1:
        raise ArgumentError(f"alpha must be in (0, 1), got {alpha}")


def check_R(R: int) -> None:
    """Reject a bootstrap too small for the stepdown p-values."""
    if R < 100:
        raise ArgumentError(f"R must be >= 100, got {R}")


def bootstrap_statistics(fit: RegressionFit, R: int, seed: int) -> np.ndarray:
    """Residual bootstrap, centered at the original estimates (R x J).

    Resamples residuals u* with replacement, refits d* = X beta_hat + u* on
    the unchanged design, and forms ((beta*_j - beta_hat_j) / se*_j)^2.
    The fit's QR serves every replication: with w = Q^T u*, the refit moves
    the estimates by R^{-1} w and leaves the residual sum of squares
    ||u*||^2 - ||w||^2, so no d*, refit or residual array is formed.
    Degenerate replications with zero residual variance yield 0, so an
    exact fit, whose resamples are all zero, yields 0 throughout.

    The resamples are drawn and reduced to w and ||u*||^2 in blocks of
    _BLOCK rows, so memory is O(_BLOCK n + R J), not O(R n): an R x n
    resample array would be allocated, page-faulted in and returned to the
    system on every call. The generator's integer stream does not depend on
    how the draws are split, so every block size draws the same resamples.
    """
    check_R(R)
    n, k = fit.q.shape
    rng = np.random.default_rng(seed)
    w = np.empty((R, k))  # R x (J+1)
    rss_star = np.empty(R)
    for start in range(0, R, _BLOCK):
        stop = min(start + _BLOCK, R)
        resampled = fit.residuals[rng.integers(0, n, size=(stop - start, n))]
        np.matmul(resampled, fit.q, out=w[start:stop])
        np.einsum("ij,ij->i", resampled, resampled, out=rss_star[start:stop])
    rss_star -= np.einsum("ij,ij->i", w, w)
    sigma2_star = np.maximum(rss_star, 0.0) / (n - k)
    diag = np.einsum("ij,ij->i", fit.r_inv[1:], fit.r_inv[1:])
    se_star = np.sqrt(sigma2_star[:, None] * diag)  # R x J
    delta = w @ fit.r_inv[1:].T  # beta*_j - beta_hat_j for j = 1..J
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
    check_alpha(alpha)
    fit = fit_regression(d, Xi)
    boot = bootstrap_statistics(fit, R, seed)[: R - 1]  # R-1 comparison rows
    J = fit.t_sq.size
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
    return TestReport(frozenset(rejected), tuple(p_values), alpha, R, seed, J)


def classify_and_test(
    sample: FunctionalSample,
    J_max: int = 51,
    alpha: float = 0.05,
    R: int = 1000,
    seed: int = 0,
) -> TestReport:
    """End-to-end test: basis-size selection on [t_1, d_min], stepdown.

    Needs core.fully_observed_prefix: the interval observation pattern with
    d_min > t_1, checked before J_max, alpha, R and the seed. A constant
    endpoint vector (e.g. a fully observed sample) short-circuits to the
    Null outcome with the degenerate-response flag set, after those checks.
    """
    fully_observed_prefix(sample)
    check_J_max(J_max)
    check_alpha(alpha)
    check_R(R)
    check_seed(seed)
    if np.ptp(sample.d_i) == 0.0:
        return TestReport(frozenset(), (), alpha, R, seed, degenerate_response=True)
    _, coefficients = select_J(sample, J_max)
    return romano_wolf(sample.d_i, coefficients, alpha, R, seed)
