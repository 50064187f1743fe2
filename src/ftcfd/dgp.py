"""Simulation designs: four endpoint mechanisms plus truth oracles.

Curves are 5-dimensional Fourier combinations X_i(t) = sum_j xi_ij psi_j(t)
with independent Gaussian coefficients. The endpoint d_i of the observed
interval [0, d_i] is either tied to the level coefficient xi_1 (Dep designs,
violating missing-completely-at-random) or drawn independently (Ind designs).
A fifth, clearly labeled extension ties d_i to a two-dimensional monomial
component for exercising the order-2 back-transform estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .basis import BasisSpec, eval_basis
from .core import FunctionalSample, make_grid
from .errors import ArgumentError

DEP_DIS = "DepDis"
DEP_CON = "DepCon"
IND_DIS = "IndDis"
IND_CON = "IndCon"
KINDS = (DEP_DIS, DEP_CON, IND_DIS, IND_CON)

DEFAULT_MU = (5.0, 2.0, 0.0, 0.0, 0.0)
DEFAULT_LAMBDA = (10.0, 8.0, 6.0, 4.0, 2.0)


@dataclass(frozen=True)
class DgpConfig:
    kind: str
    n: int
    p: int = 501
    mu: tuple = DEFAULT_MU
    lam: tuple = DEFAULT_LAMBDA
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ArgumentError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        if self.n < 1 or self.p < 3:
            raise ArgumentError("need n >= 1 and p >= 3")
        if len(self.mu) != 5 or len(self.lam) != 5:
            raise ArgumentError("exactly 5 coefficient means/variances expected")
        if any(l <= 0 for l in self.lam):
            raise ArgumentError("coefficient variances must be strictly positive")


def _draw_coefficients(rng, n, mu, lam) -> np.ndarray:
    return np.asarray(mu) + np.sqrt(np.asarray(lam)) * rng.standard_normal((n, 5))


def _dep_con_endpoints(xi1, mu1, lam1, n) -> np.ndarray:
    d_star = ndtr((xi1 - mu1) / math.sqrt(lam1))
    # Empirical 98% quantile chosen so exactly ceil(0.02 n) values map to 1.
    k = math.ceil(0.02 * n)
    q = np.sort(d_star)[n - k] if k <= n else -np.inf
    d = np.where(d_star <= 0.5, 0.5, d_star)
    return np.where(d_star >= q, 1.0, d)


def draw_sample(config: DgpConfig):
    """Draw (sample, d, xi) for one replication.

    The coefficient matrix is drawn first from a seed-determined stream, so
    different kinds with the same seed share xi and differ only in d.
    Values at grid points beyond d_i are missing.
    """
    rng = np.random.default_rng(config.seed)
    xi = _draw_coefficients(rng, config.n, config.mu, config.lam)
    mu1, lam1 = config.mu[0], config.lam[0]
    if config.kind == DEP_DIS:
        # Boundary xi_1 = mu_1 (probability zero) maps to d = 1.
        d = np.where(xi[:, 0] - mu1 < 0.0, 0.5, 1.0)
    elif config.kind == DEP_CON:
        d = _dep_con_endpoints(xi[:, 0], mu1, lam1, config.n)
    elif config.kind == IND_DIS:
        d = np.where(rng.random(config.n) < 0.5, 0.5, 1.0)
    else:  # IND_CON
        d = rng.uniform(0.5, 1.0, config.n)
    grid = make_grid(config.p, 0.0, 1.0)
    values = xi @ eval_basis(BasisSpec(5, (0.0, 1.0)), grid.points).T
    mask = grid.points[None, :] <= d[:, None]
    sample = FunctionalSample(grid, np.where(mask, values, np.nan), mask)
    return sample, d, xi


def true_mean(t, mu=DEFAULT_MU):
    """mu_1 + mu_2 sqrt(2) sin(2 pi t) for the default coefficient means."""
    t = np.asarray(t, dtype=float)
    basis = eval_basis(BasisSpec(5, (0.0, 1.0)), np.atleast_1d(t))
    out = basis @ np.asarray(mu)
    return out if t.ndim else float(out[0])


def true_cov(s, t, lam=DEFAULT_LAMBDA):
    """sum_j lam_j psi_j(s) psi_j(t); broadcasts over arrays."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    spec = BasisSpec(5, (0.0, 1.0))
    bs = eval_basis(spec, np.atleast_1d(s).ravel())
    bt = eval_basis(spec, np.atleast_1d(t).ravel())
    out = (bs * np.asarray(lam)) @ bt.T
    if s.ndim == 0 and t.ndim == 0:
        return float(out[0, 0])
    return out


def analytic_bias_dep_dis(t, lam1=DEFAULT_LAMBDA[0]):
    """Pointwise bias of the classical mean under the DepDis design.

    Zero on the fully observed half; on (0.5, 1] only curves with
    xi_1 > mu_1 remain, so the level shifts by the half-normal mean
    sqrt(2 lam_1 / pi).
    """
    t = np.asarray(t, dtype=float)
    out = np.where(t > 0.5, math.sqrt(2.0 * lam1 / math.pi), 0.0)
    return out if t.ndim else float(out)


# --- Labeled extension: two-dimensional monomial dependence -----------------
#
# Not part of the four designs above. The curve span is {1, t} plus three
# Fourier terms; the endpoint follows the sign of the centered sum
# xi_1 + xi_2, so the missing mechanism depends on the first two monomial
# components and only the order-2 back-transform removes the bias.

V2_MU = (5.0, 2.0, 0.0, 0.0, 0.0)
V2_LAMBDA = (10.0, 8.0, 6.0, 4.0, 2.0)


def _v2_basis(points) -> np.ndarray:
    t = np.asarray(points, dtype=float)
    return np.column_stack(
        [
            np.ones_like(t),
            t,
            np.sqrt(2.0) * np.sin(2.0 * np.pi * t),
            np.sqrt(2.0) * np.cos(2.0 * np.pi * t),
            np.sqrt(2.0) * np.sin(4.0 * np.pi * t),
        ]
    )


def draw_v2_sample(n: int, p: int = 501, seed: int = 0):
    """Draw (sample, d, xi) from the monomial-dependence extension."""
    if n < 1 or p < 3:
        raise ArgumentError("need n >= 1 and p >= 3")
    rng = np.random.default_rng(seed)
    xi = np.asarray(V2_MU) + np.sqrt(np.asarray(V2_LAMBDA)) * rng.standard_normal((n, 5))
    centered_sum = (xi[:, 0] - V2_MU[0]) + (xi[:, 1] - V2_MU[1])
    d = np.where(centered_sum < 0.0, 0.5, 1.0)
    grid = make_grid(p, 0.0, 1.0)
    values = xi @ _v2_basis(grid.points).T
    mask = grid.points[None, :] <= d[:, None]
    sample = FunctionalSample(grid, np.where(mask, values, np.nan), mask)
    return sample, d, xi


def v2_true_mean(t):
    t = np.asarray(t, dtype=float)
    out = _v2_basis(np.atleast_1d(t)) @ np.asarray(V2_MU)
    return out if t.ndim else float(out[0])


def v2_true_cov(s, t):
    bs = _v2_basis(np.atleast_1d(s).ravel())
    bt = _v2_basis(np.atleast_1d(t).ravel())
    out = (bs * np.asarray(V2_LAMBDA)) @ bt.T
    s = np.asarray(s)
    if s.ndim == 0 and np.asarray(t).ndim == 0:
        return float(out[0, 0])
    return out
