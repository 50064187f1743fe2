"""Fourier basis evaluation, least-squares projection, and BIC size selection.

The basis is the classical system 1, sqrt(2) sin(2 pi k u), sqrt(2) cos(2 pi k u)
rescaled so that u runs over [0, 1] on the requested domain. Only odd basis
counts are used so sin/cos pairs stay together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FunctionalSample
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


@dataclass(frozen=True)
class BasisProjection:
    """Per-curve least-squares Fourier coefficients on a subdomain."""

    coefficients: np.ndarray  # n x J
    J: int
    subdomain: tuple[float, float]


def eval_basis(spec: BasisSpec, grid_points) -> np.ndarray:
    """Evaluate the J basis functions at the given points (len x J matrix)."""
    t = np.asarray(grid_points, dtype=float)
    lo, hi = spec.domain
    tol = 1e-12 * max(abs(lo), abs(hi), 1.0)
    if np.any(t < lo - tol) or np.any(t > hi + tol):
        raise ArgumentError("points outside the basis domain")
    u = (t - lo) / (hi - lo)
    cols = [np.ones_like(u)]
    for k in range(1, (spec.J - 1) // 2 + 1):
        cols.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * k * u))
        cols.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * k * u))
    return np.column_stack(cols)


def _subdomain_indices(sample: FunctionalSample, subdomain) -> np.ndarray:
    lo, hi = subdomain
    pts = sample.grid.points
    tol = 1e-12 * max(abs(pts[0]), abs(pts[-1]), 1.0)
    idx = np.flatnonzero((pts >= lo - tol) & (pts <= hi + tol))
    if idx.size == 0:
        raise ArgumentError("subdomain contains no grid points")
    if not sample.mask[:, idx].all():
        raise ArgumentError("every curve must be fully observed on the subdomain")
    return idx


def project(sample: FunctionalSample, spec: BasisSpec, subdomain) -> BasisProjection:
    """OLS fit of each curve's subdomain values against the basis columns.

    The basis is rescaled to spec.domain and evaluated at the subdomain
    grid points; pass spec.domain == subdomain for a basis orthonormal on
    the fitted interval. All curves share the same design matrix (common
    grid), so a single least-squares solve handles the whole sample.
    """
    idx = _subdomain_indices(sample, subdomain)
    if idx.size < spec.J:
        raise ArgumentError(
            f"subdomain has {idx.size} grid points, need >= J={spec.J}"
        )
    pts = sample.grid.points[idx]
    design = eval_basis(spec, pts)
    coef, _, rank, _ = np.linalg.lstsq(design, sample.values[:, idx].T, rcond=None)
    if rank < spec.J:
        raise NumericalError(
            f"rank-deficient basis design: rank {rank} < J={spec.J} "
            f"on {idx.size} subdomain points"
        )
    return BasisProjection(
        coefficients=coef.T, J=spec.J, subdomain=(float(pts[0]), float(pts[-1]))
    )


def select_J(
    sample: FunctionalSample, subdomain, J_max: int, basis_domain=None
) -> int:
    """BIC-median basis-size selection over odd J in {3, 5, ..., J_max}.

    Per curve, BIC(J) = m log(RSS/m) + J log(m) with m subdomain points;
    the sample uses the lower median of the per-curve minimizers, snapped
    down to the nearest odd value >= 3. The basis is rescaled to
    basis_domain (default: the sample's full grid domain).

    The candidate designs are nested column prefixes of the largest one,
    so a single reduced QR, design = Q R with z = Q^T y, gives every RSS:
    RSS_J = RSS_max + sum_{k >= J} z_k^2, where RSS_max = ||y - Q z||^2 is
    formed from the residual itself. Forming RSS_J as ||y||^2 minus the
    leading z_k^2 instead would leave rounding noise of order eps ||y||^2,
    above the RSS floor, and break the ties between exact fits at random.

    The sweep stops at the first candidate whose design loses numerical
    rank, with the rule np.linalg.lstsq applies: the smallest singular
    value is <= eps max(m, J) times the largest. The singular values of a
    design prefix are those of the leading J x J block of R.
    """
    if J_max < 3 or J_max % 2 == 0:
        raise ArgumentError(f"J_max must be odd and >= 3, got {J_max}")
    idx = _subdomain_indices(sample, subdomain)
    m = idx.size
    pts = sample.grid.points[idx]
    if basis_domain is None:
        basis_domain = (float(sample.grid.points[0]), float(sample.grid.points[-1]))
    candidates = [J for J in range(3, J_max + 1, 2) if J <= m]
    if not candidates:
        raise ArgumentError(f"subdomain has only {m} points, too few for J >= 3")
    design_full = eval_basis(BasisSpec(candidates[-1], basis_domain), pts)
    y = sample.values[:, idx].T  # m x n
    floor = np.maximum(m * (_RSS_REL_FLOOR**2) * np.mean(y**2, axis=0), _RSS_ABS_FLOOR)
    q, r = np.linalg.qr(design_full)
    kept = []
    for J in candidates:
        sv = np.linalg.svd(r[:J, :J], compute_uv=False)
        if sv[-1] <= np.finfo(float).eps * max(m, J) * sv[0]:
            break  # larger candidates only get worse conditioned
        kept.append(J)
    if not kept:
        raise NumericalError("rank-deficient basis design at the smallest J")
    z = q.T @ y
    rss_full = np.sum((y - q @ z) ** 2, axis=0)
    # tail[k] = sum_{k' >= k} z_k'^2, with a zero row for the full design.
    tail = np.zeros((z.shape[0] + 1, z.shape[1]))
    tail[:-1] = np.cumsum((z**2)[::-1], axis=0)[::-1]
    Js = np.array(kept)
    rss = np.maximum(rss_full + tail[Js], floor)
    bics = m * np.log(rss / m) + Js[:, None] * np.log(m)
    best = Js[np.argmin(bics, axis=0)]
    lower_median = int(np.sort(best)[(sample.n - 1) // 2])
    if lower_median % 2 == 0:
        lower_median -= 1
    return max(lower_median, 3)
