"""Classical and integral-back-transform estimators for mean and covariance.

The classical estimators average observed values pointwise (0/0 = NaN).
Their back-transformed counterparts estimate derivative means/covariances,
which stay unbiased when the missing mechanism depends only on low-order
polynomial components, and integrate them back from an anchor block [l, u]
where the full sample is observed.

With P taking the value at clip(t, [l, u]) and W the trapezoid integral
from clip(t, [l, u]) to t, every back-transform is one linear operator

    M_K = [P, WP, ..., W^(K-1) P, W^K],

so ftc_mean = M_K mu and ftc_cov = M_K S M_K^T, where mu stacks the
derivative means of orders 0..K and S[a][b] is the pairwise-complete
covariance of orders a and b. The classical covariance is S[0][0] of the
same pass, so cov_pair returns both covariances from one computation of S.

All estimators are pure functions of the sample; undefined cells propagate
as NaN and every integral stops at the first undefined cell in each
direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FunctionalSample, Grid, subdomain_indices, summarize_observation
from .errors import ArgumentError


@dataclass(frozen=True)
class MeanEstimate:
    """Gridded mean estimate; NaN marks cells with no observed curve."""

    grid: Grid
    values: np.ndarray
    order: int
    anchor: float | None = None


@dataclass(frozen=True)
class CovEstimate:
    """Gridded covariance estimate; NaN marks cells with no observed pair."""

    grid: Grid
    values: np.ndarray
    orders: tuple[int, int]
    anchor: float | None = None


def differentiate(sample: FunctionalSample) -> FunctionalSample:
    """Finite-difference first derivative per curve, mask preserved.

    Central differences at interior observed points, 3-point one-sided
    stencils at the two ends of each curve's observed run (exact on
    quadratics). Each observed set must be a contiguous grid interval
    with at least 3 points.
    """
    mask = sample.mask
    n, p = mask.shape
    counts = mask.sum(axis=1)
    first = np.argmax(mask, axis=1)
    last = p - 1 - np.argmax(mask[:, ::-1], axis=1)
    if np.any(last - first + 1 != counts):
        raise ArgumentError("observed set of each curve must be contiguous")
    if np.any(counts < 3):
        raise ArgumentError("each curve needs >= 3 observed points to differentiate")
    h = sample.grid.h
    v = sample.values
    d = np.full_like(v, np.nan)
    d[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * h)
    rows = np.arange(n)
    d[rows, first] = (
        -3.0 * v[rows, first] + 4.0 * v[rows, first + 1] - v[rows, first + 2]
    ) / (2.0 * h)
    d[rows, last] = (
        3.0 * v[rows, last] - 4.0 * v[rows, last - 1] + v[rows, last - 2]
    ) / (2.0 * h)
    return FunctionalSample(sample.grid, np.where(mask, d, np.nan), mask)


def _derivative_chain(sample: FunctionalSample, K: int) -> list[FunctionalSample]:
    """Samples of derivative orders 0..K."""
    chain = [sample]
    for _ in range(K):
        chain.append(differentiate(chain[-1]))
    return chain


def _mean_vec(sample: FunctionalSample) -> np.ndarray:
    mask = sample.mask
    counts = mask.sum(axis=0)
    total = np.where(mask, sample.values, 0.0).sum(axis=0)
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, total / np.maximum(counts, 1), np.nan)


def mean_est(sample: FunctionalSample, k: int = 0) -> MeanEstimate:
    """Pointwise average of order-k derivative values over observed curves."""
    if k < 0:
        raise ArgumentError("derivative order must be >= 0")
    return MeanEstimate(sample.grid, _mean_vec(_derivative_chain(sample, k)[k]), order=k)


def _centered(sample: FunctionalSample) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.where(sample.mask, sample.values - _mean_vec(sample), 0.0)


def _pair_counts(mask: np.ndarray) -> np.ndarray:
    """Number of curves observing both s and t; NaN where there is none."""
    maskf = mask.astype(float)
    counts = maskf.T @ maskf
    return np.where(counts > 0, counts, np.nan)


def _cov_mat(c_l: np.ndarray, c_k: np.ndarray, counts) -> np.ndarray:
    # Given one array twice, numpy computes c.T @ c as a symmetric rank-k
    # update: the block comes out exactly symmetric at half the flops.
    return (c_l.T @ c_k) / counts


def cov_est(sample: FunctionalSample, l: int = 0, k: int = 0) -> CovEstimate:
    """Pairwise-complete covariance of order-(l, k) derivative values.

    Centering uses the observed-subset means of matching orders; the
    divisor is the pair count (n under full observation), 0/0 = NaN.
    """
    if l < 0 or k < 0:
        raise ArgumentError("derivative orders must be >= 0")
    chain = _derivative_chain(sample, max(l, k))
    cs = {o: _centered(chain[o]) for o in {l, k}}
    values = _cov_mat(cs[l], cs[k], _pair_counts(sample.mask))
    return CovEstimate(sample.grid, values, orders=(l, k))


def _integrate(v, h: float, l: int, u: int, axis: int = 0) -> np.ndarray:
    """W along `axis`: trapezoid integral of v from clip(t, [l, u]) to t.

    Zero on the block [l, u]; beyond u a cumulative sum from u, below l a
    negated one from l. NaN stops each integral at the first undefined cell.
    """
    v = np.moveaxis(np.asarray(v, dtype=float), axis, 0)
    out = np.zeros_like(v)
    if u < v.shape[0] - 1:
        out[u + 1:] = np.cumsum(0.5 * h * (v[u:-1] + v[u + 1:]), axis=0)
    if l > 0:
        seg = 0.5 * h * (v[:l] + v[1: l + 1])
        out[:l] = -np.cumsum(seg[::-1], axis=0)[::-1]
    return np.moveaxis(out, 0, axis)


def _backtransform(levels, h: float, l: int, u: int, axis: int = 0) -> np.ndarray:
    """M_K along `axis`, levels[k] holding order k, in Horner form.

    P levels[0] + W (P levels[1] + ... + W (P levels[K-1] + W levels[K])),
    where P takes the value at clip(t, [l, u]).
    """
    clip = np.clip(np.arange(levels[0].shape[axis]), l, u)
    out = levels[-1]
    for m in reversed(levels[:-1]):
        out = np.take(m, clip, axis=axis) + _integrate(out, h, l, u, axis)
    return out


def _anchor_run(sample: FunctionalSample, j_f: int) -> tuple[int, int]:
    """Maximal contiguous block of fully observed columns containing j_f."""
    full = sample.mask.all(axis=0)
    if not full[j_f]:
        raise ArgumentError(
            f"grid point {sample.grid.points[j_f]} is not observed for the full sample"
        )
    l = j_f
    while l > 0 and full[l - 1]:
        l -= 1
    u = j_f
    while u < full.size - 1 and full[u + 1]:
        u += 1
    return l, u


def _anchored_chain(sample: FunctionalSample, d_f, K: int):
    """Derivative chain 0..K, anchor index and its fully observed block [l, u].

    Without d_f the sample must have the interval pattern and the anchor
    is d_min, the last fully observed grid point.
    """
    if K < 1:
        raise ArgumentError("K must be >= 1")
    if int(sample.mask.sum(axis=1).min()) < K + 2:
        raise ArgumentError(
            f"order-{K} stencils need >= {K + 2} observed points per curve"
        )
    if d_f is None:
        summ = summarize_observation(sample)
        if not summ.interval_pattern:
            raise ArgumentError(
                "sample does not have the interval observation pattern; "
                "pass an explicit anchor d_f (--d-f)"
            )
        j_f = int(summ.d_f_candidates[-1])
    else:
        j_f = sample.grid.index_of(d_f)
    l, u = _anchor_run(sample, j_f)
    return _derivative_chain(sample, K), j_f, l, u


def ftc_mean(sample: FunctionalSample, d_f=None, K: int = 1) -> MeanEstimate:
    """K-fold back-transform mean M_K mu anchored at d_f (default d_min).

    d_f is snapped to the nearest grid point, which must be observed by
    every curve; the block [l, u] is the maximal fully observed run around
    it, where the estimate equals the classical mean.
    """
    chain, j_f, l, u = _anchored_chain(sample, d_f, K)
    values = _backtransform([_mean_vec(s) for s in chain], sample.grid.h, l, u)
    return MeanEstimate(sample.grid, values, order=0, anchor=float(sample.grid.points[j_f]))


def cov_pair(sample: FunctionalSample, d_f=None, K: int = 1) -> tuple[CovEstimate, CovEstimate]:
    """(cov_est(sample), ftc_cov(sample, d_f, K)) from one pass over S.

    The classical covariance is the block S[0, 0] that M_K S M_K^T starts
    from; all blocks share one pair-count matrix (differentiation keeps the
    mask) and one centred array per derivative order. Anchoring as in
    ftc_mean; only the back-transform estimate carries the anchor.
    """
    chain, j_f, l, u = _anchored_chain(sample, d_f, K)
    counts = _pair_counts(sample.mask)
    cs = [_centered(s) for s in chain]
    S = {}
    for a in range(K + 1):
        for b in range(a + 1):
            S[a, b] = _cov_mat(cs[a], cs[b], counts)
            if a != b:
                S[b, a] = S[a, b].T
    h = sample.grid.h
    cols = [
        _backtransform([S[a, b] for a in range(K + 1)], h, l, u, axis=0)
        for b in range(K + 1)
    ]
    values = _backtransform(cols, h, l, u, axis=1)
    anchor = float(sample.grid.points[j_f])
    classical = CovEstimate(sample.grid, S[0, 0], orders=(0, 0))
    return classical, CovEstimate(sample.grid, values, orders=(0, 0), anchor=anchor)


def ftc_cov(sample: FunctionalSample, d_f=None, K: int = 1) -> CovEstimate:
    """K-fold back-transform covariance M_K S M_K^T anchored at d_f (see cov_pair)."""
    return cov_pair(sample, d_f, K)[1]


def fpca_scores(sample: FunctionalSample, subdomain) -> tuple[np.ndarray, np.ndarray]:
    """Principal component scores on a fully observed subdomain.

    Eigendecomposes the classical covariance restricted to the subdomain,
    scaled by the grid spacing for the integral inner product. Returns
    (scores, explained) with explained fractions non-increasing and
    summing to 1 over the retained positive eigenvalues.
    """
    idx = subdomain_indices(sample, subdomain)
    if idx.size < 2:
        raise ArgumentError("subdomain contains fewer than 2 grid points")
    h = sample.grid.h
    vals = sample.values[:, idx]
    mu = vals.mean(axis=0)
    cov = cov_est(sample, 0, 0).values[np.ix_(idx, idx)]
    eigvals, eigvecs = np.linalg.eigh(h * cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    # Relative cut within the spectrum plus an absolute cut against the data
    # scale, so identical curves (variance at round-off level) yield no
    # components instead of one spurious component.
    keep = eigvals > max(eigvals[0], 0.0) * 1e-12
    keep &= eigvals > 1e-12 * max(float(np.abs(vals).max()) ** 2, 1e-300)
    eigvals, eigvecs = eigvals[keep], eigvecs[:, keep]
    if eigvals.size == 0:
        # Degenerate sample (all curves identical on the subdomain).
        return np.zeros((sample.n, 0)), np.zeros(0)
    # Eigenfunctions phi = v / sqrt(h) are L2-normalized on the subdomain.
    scores = np.sqrt(h) * (vals - mu) @ eigvecs
    explained = eigvals / eigvals.sum()
    return scores, explained
