"""Fourier basis evaluation and BIC size selection with the fitted coefficients.

The basis is the classical system 1, sqrt(2) sin(2 pi k u), sqrt(2) cos(2 pi k u)
rescaled so that u runs over [0, 1] on the requested domain. Only odd basis
counts are used so sin/cos pairs stay together.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .core import FunctionalSample, subdomain_values
from .errors import ArgumentError, NumericalError

# Residual sums of squares below this relative level are numerical noise;
# flooring them makes exact fits tie so the BIC penalty decides the size.
_RSS_REL_FLOOR = 1e-8
_RSS_ABS_FLOOR = 1e-300


@dataclass(frozen=True)
class BasisSpec:
    """Fourier system size and the interval it is rescaled to."""

    J: int
    domain: tuple[float, float]

    def __post_init__(self):
        if self.J < 3 or self.J % 2 == 0:
            raise ArgumentError(f"J must be odd and >= 3, got {self.J}")
        lo, hi = self.domain
        if not lo < hi:
            raise ArgumentError(f"domain must satisfy lo < hi, got {self.domain}")


def eval_basis(spec: BasisSpec, grid_points) -> np.ndarray:
    """Evaluate the J basis functions at the given points (len x J matrix)."""
    t = np.asarray(grid_points, dtype=float)
    lo, hi = spec.domain
    # Relative to the domain's length, plus the rounding of its endpoints.
    tol = 1e-12 * (hi - lo) + 4 * np.finfo(float).eps * max(abs(lo), abs(hi))
    if np.any(t < lo - tol) or np.any(t > hi + tol):
        raise ArgumentError("points outside the basis domain")
    u = (t - lo) / (hi - lo)
    cols = [np.ones_like(u)]
    for k in range(1, (spec.J - 1) // 2 + 1):
        cols.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * k * u))
        cols.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * k * u))
    return np.column_stack(cols)


def check_J_max(J_max: int) -> None:
    """Reject a basis-size bound the odd-J sweep of select_J cannot use."""
    if J_max < 3 or J_max % 2 == 0:
        raise ArgumentError(f"J_max must be odd and >= 3, got {J_max}")


def select_J(sample: FunctionalSample, J_max: int) -> tuple[int, np.ndarray]:
    """BIC-median basis-size selection over odd J in {3, 5, ..., J_max}.

    Returns the selected J and the n x J least-squares coefficients of each
    curve's values on the fully observed subdomain [t_1, d_min]
    (core.fully_observed_prefix) on the first J basis functions.

    Per curve, BIC(J) = m log(RSS/m) + J log(m) with m subdomain points;
    the sample uses the lower median of the per-curve minimizers. The basis
    is rescaled to the sample's full grid domain, not to the subdomain: that
    keeps finite-dimensional curves finite-dimensional on the subdomain,
    which the BIC sweep and the regression design both rely on.

    The candidate designs are nested column prefixes of the largest one,
    so a single reduced QR, design = Q R with z = Q^T y, gives every RSS:
    RSS_J = RSS_max + sum_{k >= J} z_k^2, where RSS_max = ||y - Q z||^2 is
    formed from the residual itself. Forming RSS_J as ||y||^2 minus the
    leading z_k^2 instead would leave rounding noise of order eps ||y||^2,
    above the RSS floor, and break the ties between exact fits at random.

    The sweep stops at the first candidate whose design loses numerical
    rank, with the rule np.linalg.lstsq applies: the smallest singular
    value is <= eps max(m, J) = eps m times the largest. The singular values
    of a design prefix are those of the leading J x J block of R, and so of
    R[:J+1, :J]: dropping a column interlaces them, the smallest never rises
    with J and the largest never falls, and a bisection finds the break.

    The same factors give the coefficients, R[:J, :J]^{-1} z[:J]: the
    selected J is one of the candidates that passed the rank rule.
    """
    check_J_max(J_max)
    y = subdomain_values(sample).T  # m x n
    m = y.shape[0]
    pts = sample.grid.points[:m]
    domain = (float(sample.grid.points[0]), float(sample.grid.points[-1]))
    candidates = [J for J in range(3, J_max + 1, 2) if J <= m]
    if not candidates:
        raise ArgumentError(f"subdomain has only {m} points, too few for J >= 3")
    design_full = eval_basis(BasisSpec(candidates[-1], domain), pts)
    # One m x n buffer holds y^2, then Q z, the residual and its square.
    work = np.square(y)
    floor = np.maximum(m * (_RSS_REL_FLOOR**2) * np.mean(work, axis=0), _RSS_ABS_FLOOR)
    q, r = np.linalg.qr(design_full)

    def loses_rank(J):
        sv = np.linalg.svd(r[:J, :J], compute_uv=False)
        return bool(sv[-1] <= np.finfo(float).eps * m * sv[0])

    kept = candidates[: bisect.bisect_left(candidates, True, key=loses_rank)]
    if not kept:
        raise NumericalError("rank-deficient basis design at the smallest J")
    z = q.T @ y
    np.matmul(q, z, out=work)
    np.subtract(y, work, out=work)
    rss_full = np.sum(np.square(work, out=work), axis=0)
    # tail[k] = sum_{k' >= k} z_k'^2, with a zero row for the full design.
    tail = np.zeros((z.shape[0] + 1, z.shape[1]))
    tail[:-1] = np.cumsum((z**2)[::-1], axis=0)[::-1]
    Js = np.array(kept)
    rss = np.maximum(rss_full + tail[Js], floor)
    bics = m * np.log(rss / m) + Js[:, None] * np.log(m)
    best = Js[np.argmin(bics, axis=0)]
    J = int(np.sort(best)[(sample.n - 1) // 2])
    return J, np.linalg.solve(r[:J, :J], z[:J]).T
