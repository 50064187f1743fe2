"""Reference oracles and sample builders shared by the tests.

mean_est and cov_est are the classical pointwise mean and pairwise-complete
covariance written out from their definitions, and pair_counts counts pairs
by a matrix product for any mask. They share no code with the library, whose
commands read the same estimates as moments(sample).mu[0] and
cov_pair(m)[0], so a bit-exact comparison against them tests that code.
full_square_estimates computes every derivative order and covariance block
on the whole grid, the route the library's edge-only estimators shortcut.
one_shot_bootstrap draws all R resamples as one R x n array, the route the
library's blocked bootstrap must reproduce. cell_summary scores a stack of
replicated estimates by a two-pass mean and variance, where the library's
experiment harness streams counts, sums and sums of squares.
full_square_summary scores those streamed sums on the full p x p square,
after unfold mirrors a covariance's upper triangle back to it: the route the
harness took before it reduced covariance cells on the triangle.
"""

import numpy as np

from ftcfd.core import FunctionalSample, make_grid
from ftcfd.estimators import differentiate


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
    return FunctionalSample(grid, np.where(mask, values, np.nan))


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


def _trapezoid_horner(levels, h, l, u):
    """M_K along axis 0 of full-length levels, in Horner form.

    P levels[0] + W (P levels[1] + ... + W levels[K]), with P the value at
    clip(t, [l, u]) and W the trapezoid integral from clip(t, [l, u]) to t,
    each step in the order of operations whose bits the library keeps.
    """
    acc = levels[-1]
    for m in reversed(levels[:-1]):
        res = np.empty(m.shape)
        np.add(m[l: u + 1], 0.0, out=res[l: u + 1])
        if u < m.shape[0] - 1:
            out = res[u + 1:]
            np.add(acc[u:-1], acc[u + 1:], out=out)
            out *= 0.5 * h
            np.cumsum(out, axis=0, out=out)
            out += m[u]
        if l > 0:
            below = res[:l][::-1]
            np.add(acc[:l][::-1], acc[1: l + 1][::-1], out=below)
            below *= 0.5 * h
            np.cumsum(below, axis=0, out=below)
            np.subtract(m[l], below, out=below)
        acc = res
    return acc


def full_square_estimates(sample, l, u, K):
    """(M_K mu, S[0, 0], M_K S M_K^T) with every order on all p columns.

    Each derivative order is taken on the whole grid and every block S[a, b]
    formed on the full p x p square, whatever M_K reads of it: the direct
    route that edge-only estimators must reproduce.
    """
    values = [sample.values]
    for _ in range(K):
        values.append(differentiate(values[-1], sample.first, sample.last, sample.grid.h))
    counts = sample.mask.sum(axis=0)
    mu, cs = [], []
    for v in values:
        total = np.where(sample.mask, v, 0.0).sum(axis=0)
        with np.errstate(invalid="ignore"):
            mu.append(np.where(counts > 0, total / np.maximum(counts, 1), np.nan))
            c = v - mu[-1]
        c[~sample.mask] = 0.0
        cs.append(c)
    pairs = pair_counts(sample.mask)
    S = [[cs[a].T @ cs[b] / pairs for b in range(K + 1)] for a in range(K + 1)]
    h = sample.grid.h
    cols = [_trapezoid_horner([S[a][b] for a in range(K + 1)], h, l, u) for b in range(K + 1)]
    rows = _trapezoid_horner([c.T for c in cols], h, l, u).T
    return _trapezoid_horner(mu, h, l, u), S[0][0], rows


def one_shot_bootstrap(fit, R, seed):
    """QR-form residual bootstrap statistics (R x J) from one R x n draw.

    Every resample is drawn by a single rng.choice, then reduced by one
    product with Q and one einsum, as before the draws were blocked.
    """
    n, k = fit.q.shape
    rng = np.random.default_rng(seed)
    resampled = rng.choice(fit.residuals, size=(R, n), replace=True)
    w = resampled @ fit.q
    rss_star = np.einsum("ij,ij->i", resampled, resampled) - np.einsum("ij,ij->i", w, w)
    sigma2_star = np.maximum(rss_star, 0.0) / (n - k)
    se_star = np.sqrt(sigma2_star[:, None] * np.einsum("ij,ij->i", fit.r_inv[1:], fit.r_inv[1:]))
    delta = w @ fit.r_inv[1:].T
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(se_star > 0, (delta / se_star) ** 2, 0.0)


def cell_summary(arrays, truth, reps, h):
    """(integrated squared bias, integrated variance, excluded fraction).

    arrays holds one estimate per replication, non-finite cells undefined.
    A grid point is included when at least max(reps / 2, 1) replications
    define it; there the bias is that of the two-pass mean and the variance
    the ddof=1 one (0 from a single value); elsewhere both are 0. Each is
    integrated by the trapezoidal rule, the first axis first.
    """
    stack = np.array([np.where(np.isfinite(a), a, np.nan) for a in arrays])
    defined = ~np.isnan(stack)
    counts = defined.sum(axis=0)
    included = counts >= max(0.5 * reps, 1)
    mean = np.where(defined, stack, 0.0).sum(axis=0) / np.maximum(counts, 1)
    dev = np.where(defined, stack - mean, 0.0)
    var = (dev * dev).sum(axis=0) / np.maximum(counts - 1, 1)

    def integrate(a):
        while a.ndim:
            a = np.trapezoid(a, dx=h, axis=0)
        return float(a)

    bias_sq = np.where(included, (mean - truth) ** 2, 0.0)
    return integrate(bias_sq), integrate(np.where(included, var, 0.0)), 1.0 - included.mean()


def unfold(tri, p):
    """The symmetric p x p array whose upper triangle, row by row, is tri."""
    upper = np.triu(np.ones((p, p), dtype=bool))
    full = np.empty((p, p), tri.dtype)
    full[upper] = full.T[upper] = tri
    return full


def full_square_summary(cnt, total, sumsq, truth, reps, h):
    """(integrated squared bias, integrated variance, excluded fraction).

    From the float count, sum and sum of squares of the replicated estimates
    at every cell, each of the mean's grid or of the full covariance square,
    with the arithmetic of the harness before it reduced on the triangle.
    """
    included = cnt >= max(0.5 * reps, 1.0)
    # Every included cell has cnt >= 1, and there the variance is exactly
    # 0 at cnt == 1; the excluded cells are zeroed below.
    cnt1 = np.maximum(cnt, 1)
    mean = total / cnt1
    var = np.clip((sumsq - cnt1 * mean**2) / np.maximum(cnt - 1, 1), 0.0, None)
    bias_sq = np.where(included, (mean - truth) ** 2, 0.0)
    var = np.where(included, var, 0.0)

    def integrate(a):
        for _ in range(a.ndim):  # last axis first
            a = np.trapezoid(a, dx=h)
        return float(a)

    excluded = 1.0 - included.mean()
    return integrate(bias_sq), integrate(var), float(excluded)
