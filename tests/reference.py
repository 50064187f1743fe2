"""Reference oracles and sample builders shared by the tests.

mean_est and cov_est are the classical pointwise mean and pairwise-complete
covariance written out from their definitions, and pair_counts counts pairs
by a matrix product for any mask. They share no code with the library, whose
commands read the same estimates as moments(sample).mu[0] and
cov_pair(m)[0], so a bit-exact comparison against them tests that code.
"""

import numpy as np

from ftcfd.core import FunctionalSample, make_grid


def mean_est(sample: FunctionalSample) -> np.ndarray:
    """Pointwise average of the values over the curves observing each point.

    NaN marks grid points no curve observes.
    """
    counts = sample.mask.sum(axis=0)
    total = np.where(sample.mask, sample.values, 0.0).sum(axis=0)
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, total / np.maximum(counts, 1), np.nan)


def pair_counts(mask: np.ndarray) -> np.ndarray:
    """Number of curves observing both s and t; NaN where there is none."""
    maskf = mask.astype(float)
    counts = maskf.T @ maskf
    return np.where(counts > 0, counts, np.nan)


def cov_est(sample: FunctionalSample) -> np.ndarray:
    """Pairwise-complete covariance of the values.

    Centering uses the observed-subset means; the divisor is the pair count
    (n under full observation), 0/0 = NaN.
    """
    with np.errstate(invalid="ignore"):
        c = sample.values - mean_est(sample)
    c[~sample.mask] = 0.0
    # numpy computes c.T @ c as a symmetric rank-k update: the result comes
    # out exactly symmetric at half the flops.
    return (c.T @ c) / pair_counts(sample.mask)


def interval_sample(grid, values, d):
    """Curve i observed on the grid points up to d[i]."""
    mask = grid.points[None, :] <= np.asarray(d)[:, None]
    return FunctionalSample(grid, np.where(mask, values, np.nan), mask)


def identical_curve_sample(p):
    """30 copies of one smooth curve on p points, cut at random endpoints.

    The classical mean is exact wherever defined, so any deviation of the
    back-transform from it is quadrature and stencil error.
    """
    g = make_grid(p, 0.0, 1.0)
    rng = np.random.default_rng(0)
    curve = np.sin(2 * np.pi * g.points) + 0.5 * np.cos(4 * np.pi * g.points)
    d = rng.uniform(0.5, 1.0, 30)
    d[0] = 1.0
    return interval_sample(g, np.tile(curve, (30, 1)), d)
