"""Simulation designs: five endpoint mechanisms plus truth oracles.

Curves are 5-dimensional combinations X_i(t) = sum_j xi_ij psi_j(t) with
independent Gaussian coefficients. In the paper's four designs (KINDS) the
psi_j are the first five Fourier functions, and the endpoint d_i of the
observed interval [0, d_i] is either tied to the level coefficient xi_1 (Dep
designs, violating missing-completely-at-random) or drawn independently (Ind
designs).

V2 is not one of the paper's designs. Its span is {1, t} plus three Fourier
terms, and d_i follows the sign of the centered sum xi_1 + xi_2, so the
missingness depends on the first two monomial components and only the
order-2 back-transform removes the bias. ALL_KINDS lists all five.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, eval_basis
from .core import FunctionalSample, check_grid_size, check_seed, make_grid
from .errors import ArgumentError

DEP_DIS = "DepDis"
DEP_CON = "DepCon"
IND_DIS = "IndDis"
IND_CON = "IndCon"
V2 = "V2"
KINDS = (DEP_DIS, DEP_CON, IND_DIS, IND_CON)
ALL_KINDS = KINDS + (V2,)

DEFAULT_MU = (5.0, 2.0, 0.0, 0.0, 0.0)
DEFAULT_LAMBDA = (10.0, 8.0, 6.0, 4.0, 2.0)


def _check_kind(kind):
    if kind not in ALL_KINDS:
        raise ArgumentError(f"unknown kind {kind!r}, expected one of {ALL_KINDS}")


@dataclass(frozen=True)
class DgpConfig:
    """One draw: design kind, n curves on p grid points, and the seed.

    The coefficients always have means DEFAULT_MU and variances
    DEFAULT_LAMBDA, the values true_mean/true_cov score estimates against.
    """

    kind: str
    n: int
    p: int = 501
    seed: int = 0

    def __post_init__(self):
        _check_kind(self.kind)
        if self.n < 1:
            raise ArgumentError(f"n must be >= 1, got {self.n}")
        check_grid_size(self.p)
        check_seed(self.seed)


def _dep_con_endpoints(xi1, mu1, lam1, n) -> np.ndarray:
    # Imported here: scipy.special costs ~0.3 s and ~24 MB at start-up, and
    # only DepCon draws need it.
    from scipy.special import ndtr

    d_star = ndtr((xi1 - mu1) / math.sqrt(lam1))
    # Empirical 98% quantile chosen so exactly ceil(0.02 n) values map to 1.
    k = math.ceil(0.02 * n)
    q = np.sort(d_star)[n - k]
    d = np.where(d_star <= 0.5, 0.5, d_star)
    return np.where(d_star >= q, 1.0, d)


def _design_basis(kind, points) -> np.ndarray:
    """psi_1..psi_5 of the given kind at the points (len x 5 matrix)."""
    _check_kind(kind)
    points = np.asarray(points, dtype=float)
    basis = eval_basis(BasisSpec(5, (0.0, 1.0)), points)
    if kind == V2:
        return np.column_stack([basis[:, 0], points, basis[:, 1:4]])
    return basis


def draw_sample(config: DgpConfig):
    """Draw (sample, d, xi) for one replication.

    The coefficient matrix is drawn first from a seed-determined stream, so
    different kinds with the same seed share xi and differ only in d.
    Values at grid points beyond d_i are missing.
    """
    rng = np.random.default_rng(config.seed)
    xi = np.asarray(DEFAULT_MU) + np.sqrt(DEFAULT_LAMBDA) * rng.standard_normal((config.n, 5))
    mu1, lam1 = DEFAULT_MU[0], DEFAULT_LAMBDA[0]
    if config.kind == DEP_DIS:
        # Boundary xi_1 = mu_1 (probability zero) maps to d = 1.
        d = np.where(xi[:, 0] - mu1 < 0.0, 0.5, 1.0)
    elif config.kind == DEP_CON:
        d = _dep_con_endpoints(xi[:, 0], mu1, lam1, config.n)
    elif config.kind == IND_DIS:
        d = np.where(rng.random(config.n) < 0.5, 0.5, 1.0)
    elif config.kind == IND_CON:
        d = rng.uniform(0.5, 1.0, config.n)
    else:  # V2
        d = np.where((xi[:, 0] - mu1) + (xi[:, 1] - DEFAULT_MU[1]) < 0.0, 0.5, 1.0)
    grid = make_grid(config.p, 0.0, 1.0)
    values = xi @ _design_basis(config.kind, grid.points).T
    values[grid.points[None, :] > d[:, None]] = np.nan
    sample = FunctionalSample(grid, values)
    return sample, d, xi


def true_mean(t, kind=DEP_DIS):
    """sum_j mu_j psi_j(t) for the default coefficient means.

    The paper's four kinds share one truth, mu_1 + mu_2 sqrt(2) sin(2 pi t).
    """
    t = np.asarray(t, dtype=float)
    out = _design_basis(kind, np.atleast_1d(t)) @ np.asarray(DEFAULT_MU)
    return out if t.ndim else float(out[0])


def true_cov(s, t, kind=DEP_DIS):
    """sum_j lam_j psi_j(s) psi_j(t) for the default variances; broadcasts."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    bs = _design_basis(kind, np.atleast_1d(s).ravel())
    bt = _design_basis(kind, np.atleast_1d(t).ravel())
    out = (bs * np.asarray(DEFAULT_LAMBDA)) @ bt.T
    if s.ndim == 0 and t.ndim == 0:
        return float(out[0, 0])
    return out


def analytic_bias_dep_dis(t):
    """Pointwise bias of the classical mean under the DepDis design.

    Zero on the fully observed half; on (0.5, 1] only curves with
    xi_1 > mu_1 remain, so the level shifts by the half-normal mean
    sqrt(2 lam_1 / pi).
    """
    t = np.asarray(t, dtype=float)
    out = np.where(t > 0.5, math.sqrt(2.0 * DEFAULT_LAMBDA[0] / math.pi), 0.0)
    return out if t.ndim else float(out)
