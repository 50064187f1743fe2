"""Classical and integral-back-transform estimators for mean and covariance.

The classical estimators average observed values pointwise (0/0 = NaN).
Their back-transformed counterparts estimate derivative means/covariances,
which stay unbiased when the missing mechanism depends only on low-order
polynomial components, and integrate them back from an anchor block [l, u]
where the full sample is observed.

With P taking the value at clip(t, [l, u]) and W the trapezoid integral
from clip(t, [l, u]) to t, every back-transform is one linear operator

    M_K = [P, WP, ..., W^(K-1) P, W^K]

applied to the moments m = moments(sample, d_f, K): ftc_mean(m) = M_K mu and
cov_pair(m) = (S[0][0], M_K S M_K^T), where mu stacks the derivative means
of orders 0..K (mu[0] is the classical mean) and S[a][b] is the
pairwise-complete covariance of orders a and b (S[0][0] the classical one).

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
    anchor: float | None = None


@dataclass(frozen=True)
class CovEstimate:
    """Gridded covariance estimate; NaN marks cells with no observed pair."""

    grid: Grid
    values: np.ndarray
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
    _reject_curves(last - first + 1 != counts, "observed set of each curve must be contiguous")
    _reject_curves(counts < 3, "each curve needs >= 3 observed points to differentiate")
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


def _reject_curves(bad: np.ndarray, message: str) -> None:
    """Raise `message` naming the first flagged curve by its 1-based row."""
    if bad.any():
        raise ArgumentError(f"{message} (curve {int(np.argmax(bad)) + 1})")


def _mean_vec(sample: FunctionalSample) -> np.ndarray:
    mask = sample.mask
    counts = mask.sum(axis=0)
    total = np.where(mask, sample.values, 0.0).sum(axis=0)
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, total / np.maximum(counts, 1), np.nan)


def mean_est(sample: FunctionalSample) -> MeanEstimate:
    """Pointwise average of the values over the curves observing each point."""
    return MeanEstimate(sample.grid, _mean_vec(sample))


def _centered(sample: FunctionalSample, mu: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.where(sample.mask, sample.values - mu, 0.0)


def _pair_counts(mask: np.ndarray) -> np.ndarray:
    """Number of curves observing both s and t; NaN where there is none."""
    maskf = mask.astype(float)
    counts = maskf.T @ maskf
    return np.where(counts > 0, counts, np.nan)


def cov_est(sample: FunctionalSample) -> CovEstimate:
    """Pairwise-complete covariance of the values.

    Centering uses the observed-subset means; the divisor is the pair count
    (n under full observation), 0/0 = NaN.
    """
    c = _centered(sample, _mean_vec(sample))
    # numpy computes c.T @ c as a symmetric rank-k update: the result comes
    # out exactly symmetric at half the flops.
    values = (c.T @ c) / _pair_counts(sample.mask)
    return CovEstimate(sample.grid, values)


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


@dataclass(frozen=True)
class Moments:
    """Derivative moments of one sample and its anchor block.

    chain[k] is the order-k derivative sample (k = 0..K, all sharing the
    sample's mask) and mu[k] its pointwise mean; [l, u] is the maximal fully
    observed run of grid indices around the grid point `anchor`.
    """

    chain: tuple[FunctionalSample, ...]
    mu: tuple[np.ndarray, ...]
    l: int
    u: int
    anchor: float


def moments(sample: FunctionalSample, d_f=None, K: int = 1) -> Moments:
    """Derivative moments of orders 0..K, anchored at d_f (default d_min).

    d_f is snapped to the nearest grid point, which must be observed by
    every curve. Without d_f the sample must have the interval pattern and
    the anchor is d_min, the last fully observed grid point.
    """
    if K < 1:
        raise ArgumentError("K must be >= 1")
    _reject_curves(
        sample.mask.sum(axis=1) < K + 2,
        f"order-{K} stencils need >= {K + 2} observed points per curve",
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
    chain = [sample]
    for _ in range(K):
        chain.append(differentiate(chain[-1]))
    mu = tuple(_mean_vec(s) for s in chain)
    return Moments(tuple(chain), mu, l, u, float(sample.grid.points[j_f]))


def ftc_mean(m: Moments) -> MeanEstimate:
    """K-fold back-transform mean M_K mu.

    On the block [l, u] it equals the classical mean m.mu[0].
    """
    grid = m.chain[0].grid
    values = _backtransform(m.mu, grid.h, m.l, m.u)
    return MeanEstimate(grid, values, anchor=m.anchor)


def cov_pair(m: Moments) -> tuple[CovEstimate, CovEstimate]:
    """(cov_est(sample), M_K S M_K^T) from one pass over S.

    The classical covariance is the block S[0, 0] that M_K S M_K^T starts
    from; all blocks share one pair-count matrix (differentiation keeps the
    mask) and one centred array per derivative order. Only the
    back-transform estimate carries the anchor.
    """
    grid, K = m.chain[0].grid, len(m.chain) - 1
    counts = _pair_counts(m.chain[0].mask)
    cs = [_centered(s, mu) for s, mu in zip(m.chain, m.mu)]
    S = {}
    for a in range(K + 1):
        for b in range(a + 1):
            # For a == b numpy computes c.T @ c as a symmetric rank-k
            # update: the block comes out exactly symmetric at half the flops.
            S[a, b] = (cs[a].T @ cs[b]) / counts
            if a != b:
                S[b, a] = S[a, b].T
    cols = [
        _backtransform([S[a, b] for a in range(K + 1)], grid.h, m.l, m.u, axis=0)
        for b in range(K + 1)
    ]
    values = _backtransform(cols, grid.h, m.l, m.u, axis=1)
    classical = CovEstimate(grid, S[0, 0])
    return classical, CovEstimate(grid, values, anchor=m.anchor)


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
    # Every curve observes the subdomain, so each pair count there is n.
    c = vals - vals.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(h * (c.T @ c / sample.n))
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
    scores = np.sqrt(h) * c @ eigvecs
    explained = eigvals / eigvals.sum()
    return scores, explained
