"""Classical and integral-back-transform estimators for mean and covariance.

The classical estimators average observed values pointwise (0/0 = NaN).
Their back-transformed counterparts estimate derivative means/covariances,
which stay unbiased when the missing mechanism depends only on low-order
polynomial components, and integrate them back from the anchor block [l, u]
of grid points every curve observes (core.fully_observed_block).

With P taking the value at clip(t, [l, u]) and W the trapezoid integral
from clip(t, [l, u]) to t, every back-transform is one linear operator

    M_K = [P, WP, ..., W^(K-1) P, W^K]

applied to the moments m = moments(sample, K): ftc_mean(m) = M_K mu and
cov_pair(m) = (S[0][0], M_K S M_K^T), where mu stacks the derivative means
of orders 0..K (mu[0] is the classical mean) and S[a][b] is the
pairwise-complete covariance of orders a and b (S[0][0] the classical one).
moments reads the curves' observed runs off the sample; each order is a bare array.
Orders k >= 1 keep only the edge columns 0..l, u..p-1, where the block is
[l, l + 1]: P is the identity and W zero on [l, u], so M_K reads no more.

Every block of S divides by one pair count per (s, t). Since each curve's
observed run is contiguous and covers [l, u], of two points the one fewer
curves observe is observed only by curves that also observe the other, so
the count is min(k_s, k_t) with k_t the number of curves observing t. Only
the corners s < l, t > u (and their mirror) need curves observing both
ends and are counted directly.

Every estimator returns the numpy array it computes on the sample's grid
(cov_pair the pair of arrays). All are pure functions of the sample;
undefined cells propagate as NaN and every integral stops at the first
undefined cell in each direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FunctionalSample, fully_observed_block, reject_curves, subdomain_values
from .errors import ArgumentError


def differentiate(values, first, last, h: float) -> np.ndarray:
    """Finite-difference first derivative of each curve's observed run.

    Curve i is observed on the contiguous run first[i]..last[i] of at least
    3 grid points and carries NaN elsewhere; so does the result. Central
    differences at interior points, 3-point one-sided stencils at the two
    ends of each run (exact on quadratics).
    """
    v = values
    d = np.full_like(v, np.nan)
    d[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * h)
    rows = np.arange(v.shape[0])
    d[rows, first] = (
        -3.0 * v[rows, first] + 4.0 * v[rows, first + 1] - v[rows, first + 2]
    ) / (2.0 * h)
    d[rows, last] = (
        3.0 * v[rows, last] - 4.0 * v[rows, last - 1] + v[rows, last - 2]
    ) / (2.0 * h)
    return d


def _mean(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    counts = mask.sum(axis=0)
    total = np.where(mask, values, 0.0).sum(axis=0)
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, total / np.maximum(counts, 1), np.nan)


def _centered(values: np.ndarray, mask: np.ndarray, mu: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        c = values - mu
    c[~mask] = 0.0
    return c


def _run_pair_counts(mask: np.ndarray, l: int, u: int) -> np.ndarray:
    """Curves observing both s and t (NaN if none), for contiguous runs over [l, u].

    min(k_s, k_t) of the pointwise counts k, except the corners s < l, t > u
    and their mirror (module docstring).
    """
    k = mask.sum(axis=0, dtype=float)
    counts = np.minimum.outer(k, k)
    if l > 0 and u < k.size - 1:
        below, beyond = mask[:, :l].astype(float), mask[:, u + 1:].astype(float)
        counts[:l, u + 1:] = below.T @ beyond
        counts[u + 1:, :l] = counts[:l, u + 1:].T
    counts[counts == 0] = np.nan
    return counts


def _trapezoid_sums(out, left, right, h: float) -> None:
    """out = cumulative sum of 0.5 h (left + right) along axis 0, in place."""
    np.add(left, right, out=out)
    out *= 0.5 * h
    np.cumsum(out, axis=0, out=out)


def _backtransform(levels, h: float, l: int, u: int, axis: int = 0) -> np.ndarray:
    """M_K along `axis`, levels[k] holding order k, in Horner form.

    P levels[0] + W (P levels[1] + ... + W (P levels[K-1] + W levels[K])),
    where P takes the value at clip(t, [l, u]) and W is the trapezoid
    integral from clip(t, [l, u]) to t: zero on the block, beyond u a
    cumulative sum from u, below l a negated one from l. NaN stops each
    integral at the first undefined cell. Each step writes one new array
    through views with `axis` first.
    """
    acc = levels[-1]
    for k in range(len(levels) - 2, -1, -1):
        res = np.empty(levels[k].shape)
        r, m, v = (np.moveaxis(x, axis, 0) for x in (res, levels[k], acc))
        # Adding 0.0 turns -0.0 into +0.0, as adding a zero integral does.
        np.add(m[l: u + 1], 0.0, out=r[l: u + 1])
        if u < r.shape[0] - 1:
            _trapezoid_sums(r[u + 1:], v[u:-1], v[u + 1:], h)
            r[u + 1:] += m[u]
        if l > 0:
            below = r[:l][::-1]
            _trapezoid_sums(below, v[:l][::-1], v[1: l + 1][::-1], h)
            np.subtract(m[l], below, out=below)
        acc = res
    return acc


@dataclass(frozen=True)
class Moments:
    """Derivative moments of one sample and its anchor block.

    values[k] is the order-k derivative of every curve (k = 0..K, values[0]
    the sample's own), NaN off the sample's mask, and mu[k] its pointwise
    mean. [l, u] is the block of grid indices every curve observes.
    Orders k >= 1 cover only `edges` (0..l, u..p-1), all that M_K reads.
    """

    sample: FunctionalSample
    values: tuple[np.ndarray, ...]
    mu: tuple[np.ndarray, ...]
    l: int
    u: int
    edges: np.ndarray


def moments(sample: FunctionalSample, K: int = 1) -> Moments:
    """Derivative moments of orders 0..K and the anchor block [l, u].

    [l, u] is core.fully_observed_block's, and every curve needs K + 2
    observed points for its stencils. The paper integrates back from one
    anchor d_f that every curve observes; here P is the identity on the
    whole block, so every such d_f gives the same bytes and none is asked for.
    """
    if K < 1:
        raise ArgumentError("K must be >= 1")
    reject_curves(
        sample.counts < K + 2,
        f"order-{K} stencils need >= {K + 2} observed points per curve",
    )
    l, u = fully_observed_block(sample)
    first, last = sample.first, sample.last
    # Order k at u reads order k - 1 at u - 1 and u - 2 (end stencil), so the
    # edges get K + 1 margin columns, spoilt one per order across the seam.
    # Basic slices, as numpy sums fancy-indexed columns in another order.
    cut, gap = l + K + 2, max(u - l - 2 * K - 3, 0)
    window = np.delete(sample.values, np.s_[cut: cut + gap], axis=1)
    values = [sample.values]
    for _ in range(K):
        window = differentiate(window, first, last - gap, sample.grid.h)
        values.append(np.concatenate([window[:, : l + 1], window[:, u - gap:]], axis=1))
    edge_mask = np.concatenate([sample.mask[:, : l + 1], sample.mask[:, u:]], axis=1)
    mu = (_mean(sample.values, sample.mask), *(_mean(v, edge_mask) for v in values[1:]))
    edges = np.r_[: l + 1, u: sample.grid.p]
    return Moments(sample, tuple(values), mu, l, u, edges)


def anchor_index(m: Moments, d_f: float) -> int:
    """Grid index of the anchor d_f; raise unless every curve observes it.

    The estimates never depend on d_f: it only has to lie in [l, u].
    """
    j = m.sample.grid.index_of(d_f)
    if not m.l <= j <= m.u:
        raise ArgumentError(
            f"grid point {m.sample.grid.points[j]} is not observed for the full sample"
        )
    return j


def ftc_mean(m: Moments) -> np.ndarray:
    """K-fold back-transform mean M_K mu.

    On the block [l, u] it equals the classical mean m.mu[0].
    """
    out, E = m.mu[0] + 0.0, m.edges
    out[E] = _backtransform([m.mu[0][E], *m.mu[1:]], m.sample.grid.h, m.l, m.l + 1)
    return out


def cov_pair(m: Moments) -> tuple[np.ndarray, np.ndarray]:
    """(S[0, 0], M_K S M_K^T) from one pass over S, both exactly symmetric.

    The classical covariance is the block S[0, 0] that M_K S M_K^T starts
    from; all blocks share one pair-count matrix (differentiation keeps the
    mask) and one centred array per derivative order; orders >= 1 enter on
    the edge columns E only, so no S[a, b] with a, b >= 1 is formed off E x E.
    """
    h, K, l, E = m.sample.grid.h, len(m.values) - 1, m.l, m.edges
    counts = _run_pair_counts(m.sample.mask, m.l, m.u)
    rows = [slice(None)] + [E] * K
    cs = [_centered(v, m.sample.mask[:, r], mu) for v, r, mu in zip(m.values, rows, m.mu)]
    S = {}
    for a in range(K + 1):
        for b in range(a + 1):
            # For a == b numpy computes c.T @ c as a symmetric rank-k
            # update: the block comes out exactly symmetric at half the flops.
            S[a, b] = cs[a].T @ cs[b]
            S[a, b] /= counts[rows[a]][:, rows[b]]
            if a != b:
                S[b, a] = S[a, b].T
    # Rows E of M_K S on all columns of order 0, and E of order b; then E x E
    # of M_K S M_K^T, averaged with its transpose, so that with the mirror
    # and S[0, 0] on block x block the result is exactly symmetric.
    cols = [
        _backtransform([S[0, b][E]] + [S[a, b] for a in range(1, K + 1)], h, l, l + 1)
        for b in range(K + 1)
    ]
    corner = _backtransform([cols[0][:, E]] + cols[1:], h, l, l + 1, axis=1)
    # counts is spent: reusing it spares a fresh p x p array's page faults.
    ftc = np.add(S[0, 0], 0.0, out=counts)
    ftc[E] = cols[0]
    ftc[:, E] = cols[0].T
    ftc[np.ix_(E, E)] = 0.5 * (corner + corner.T)
    return S[0, 0], ftc


def fpca_scores(sample: FunctionalSample) -> tuple[np.ndarray, np.ndarray]:
    """Principal component scores on the fully observed subdomain [t_1, d_min].

    Needs core.fully_observed_prefix: the interval observation pattern with
    d_min > t_1. Eigendecomposes the classical covariance restricted to the
    subdomain, scaled by the grid spacing for the integral inner product.
    Returns (scores, explained) with explained fractions non-increasing and
    summing to 1 over the retained positive eigenvalues.
    """
    vals = subdomain_values(sample)
    h = sample.grid.h
    # Every curve observes the subdomain, so each pair count there is n.
    c = vals - vals.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(h * (c.T @ c / sample.n))
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    # Relative cut within the spectrum plus an absolute cut against the data
    # scale times h, as in the eigenvalues, so identical curves (variance at
    # round-off level) yield no components instead of one spurious component.
    keep = eigvals > max(eigvals[0], 0.0) * 1e-12
    keep &= eigvals > 1e-12 * h * max(float(np.abs(vals).max()) ** 2, 1e-300)
    eigvals, eigvecs = eigvals[keep], eigvecs[:, keep]
    if eigvals.size == 0:
        # Degenerate sample (all curves identical on the subdomain).
        return np.zeros((sample.n, 0)), np.zeros(0)
    # Eigenfunctions phi = v / sqrt(h) are L2-normalized on the subdomain.
    scores = np.sqrt(h) * c @ eigvecs
    explained = eigvals / eigvals.sum()
    return scores, explained
