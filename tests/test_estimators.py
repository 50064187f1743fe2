import math

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from ftcfd import dgp
from ftcfd.core import FunctionalSample, fully_observed_block, make_grid
from ftcfd.errors import ArgumentError
from ftcfd.estimators import (
    _backtransform,
    _run_pair_counts,
    anchor_index,
    cov_pair,
    differentiate,
    fpca_scores,
    ftc_mean,
    moments,
)

from reference import (
    cov_est,
    full_square_estimates,
    identical_curve_sample,
    interval_sample,
    mean_est,
    pair_counts,
)


def _nan_equal(a, b):
    return np.array_equal(np.nan_to_num(a, nan=-1.25e308), np.nan_to_num(b, nan=-1.25e308))


# --- mean_est -----------------------------------------------------------


def test_mean_est_fully_observed():
    g = make_grid(5, 0.0, 1.0)
    vals = np.arange(10.0).reshape(2, 5)
    s = FunctionalSample(g, vals)
    assert np.allclose(mean_est(s), vals.mean(axis=0))


def test_mean_est_single_observer():
    g = make_grid(3, 0.0, 1.0)
    s = FunctionalSample(
        g, np.array([[1.0, 2.0, 7.0], [3.0, 4.0, np.nan]])
    )
    assert mean_est(s)[2] == 7.0


def test_mean_est_undefined_where_nobody_observed():
    g = make_grid(4, 0.0, 1.0)
    s = interval_sample(g, np.ones((3, 4)), [1 / 3, 1 / 3, 2 / 3])
    assert np.isnan(mean_est(s)[3])


def test_mean_est_selection_bias_at_three_quarters():
    target = dgp.true_mean(0.75) + math.sqrt(2.0 * 10.0 / math.pi)
    acc = 0.0
    reps = 100
    for r in range(reps):
        s, _, _ = dgp.draw_sample("DepDis", n=500, p=101, seed=(100, r))
        acc += mean_est(s)[75]
    assert abs(acc / reps - target) < 0.25


# --- differentiate ------------------------------------------------------


def _derivative(sample):
    """First derivative of a sample whose curves are contiguous runs."""
    return differentiate(sample.values, sample.first, sample.last, sample.grid.h)


def test_differentiate_exact_on_linear():
    g = make_grid(21, 0.0, 1.0)
    s = FunctionalSample(g, (1.5 + 2.5 * g.points)[None, :])
    assert np.allclose(_derivative(s), 2.5, atol=1e-12)


def test_differentiate_sine_accuracy():
    g = make_grid(501, 0.0, 1.0)
    s = FunctionalSample(g, np.sin(2 * np.pi * g.points)[None, :])
    err = np.abs(_derivative(s)[0] - 2 * np.pi * np.cos(2 * np.pi * g.points))
    assert err.max() < 1e-3


def test_differentiate_preserves_mask():
    # The derivative is NaN exactly where the sample is unobserved.
    g = make_grid(11, 0.0, 1.0)
    lo, hi = np.array([[0], [2], [4]]), np.array([[5], [10], [7]])
    idx = np.arange(11)
    observed = (idx >= lo) & (idx <= hi)
    s = FunctionalSample(g, np.where(observed, np.tile(g.points**2, (3, 1)), np.nan))
    d = _derivative(s)
    assert np.array_equal(~np.isnan(d), s.mask)
    want = np.broadcast_to(2 * g.points, s.mask.shape)
    assert np.allclose(d[s.mask], want[s.mask], atol=1e-10)


def test_moments_rejects_non_contiguous_runs():
    # The error names the first offending curve by its 1-based row.
    g = make_grid(5, 0.0, 1.0)
    s = FunctionalSample(
        g, np.array([[0.0, 1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 2.0, 3.0, 4.0]])
    )
    with pytest.raises(ArgumentError, match=r"must be contiguous \(curve 2\)$"):
        moments(s)


def test_moments_rejects_short_runs():
    g = make_grid(5, 0.0, 1.0)
    s = FunctionalSample(
        g,
        np.array(
            [[0.0, 1.0, 2.0, np.nan, np.nan]]
            + 2 * [[1.0, 2.0, np.nan, np.nan, np.nan]]
        ),
    )
    with pytest.raises(ArgumentError, match=r">= 3 observed points .* \(curve 2\)$"):
        moments(s)


# --- cov_est ------------------------------------------------------------


def test_cov_est_fully_observed_divisor_n():
    g = make_grid(4, 0.0, 1.0)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((6, 4))
    s = FunctionalSample(g, vals)
    expected = np.cov(vals.T, bias=True)
    assert np.allclose(cov_est(s), expected, atol=1e-12)


def test_cov_est_identical_curves_zero():
    g = make_grid(6, 0.0, 1.0)
    s = interval_sample(g, np.tile(np.sin(g.points), (5, 1)), [1.0, 0.6, 0.8, 1.0, 0.6])
    c = cov_est(s)
    assert np.nanmax(np.abs(c)) < 1e-12


# Exact symmetry needs c.T @ c from one centred buffer (a symmetric rank-k
# update); two separately centred copies go through a general matmul, whose
# blocking breaks the symmetry only at realistic sizes.
@pytest.mark.parametrize(
    "kind, n, p",
    [("DepCon", 40, 51)]
    + [(kind, n, 501) for kind in ("DepDis", "IndCon", "DepCon") for n in (150, 500)],
)
def test_cov_est_symmetric_exactly(kind, n, p):
    sample, _, _ = dgp.draw_sample(kind, n=n, p=p, seed=1)
    for c in (cov_est(sample), cov_pair(moments(sample))[0]):
        assert _nan_equal(c, c.T)


def test_cov_est_monte_carlo_against_truth():
    p = 101
    g = make_grid(p, 0.0, 1.0)
    truth = dgp.true_cov(g.points, g.points)
    acc = np.zeros((p, p))
    reps = 100
    for r in range(reps):
        rng = np.random.default_rng((77, r))
        xi = np.asarray(dgp.DEFAULT_MU) + np.sqrt(
            np.asarray(dgp.DEFAULT_LAMBDA)
        ) * rng.standard_normal((500, 5))
        vals = xi @ _fourier5(g.points).T
        s = FunctionalSample(g, vals)
        acc += cov_est(s)
    assert np.abs(acc / reps - truth).max() < 1.5


def _fourier5(points):
    from ftcfd.basis import eval_basis

    return eval_basis(5, (0.0, 1.0), points)


# --- cumulative integral ------------------------------------------------

# W v is the back-transform of the levels [0, v].


def test_cum_int_constant():
    g = make_grid(11, 0.0, 1.0)
    f = _backtransform([np.zeros(11), np.ones(11)], g.h, 0, 0)
    assert np.allclose(f, g.points, atol=1e-14)


def test_cum_int_exact_on_linear_integrand():
    g = make_grid(501, 0.0, 1.0)
    f = _backtransform([np.zeros(501), 2 * g.points], g.h, 0, 0)
    assert np.allclose(f, g.points**2, atol=1e-12)


def test_cum_int_cosine_accuracy():
    g = make_grid(501, 0.0, 1.0)
    f = _backtransform([np.zeros(501), np.cos(2 * np.pi * g.points)], g.h, 0, 0)
    assert np.abs(f - np.sin(2 * np.pi * g.points) / (2 * np.pi)).max() < 5e-6


def test_cum_int_signed_below_anchor():
    g = make_grid(11, 0.0, 1.0)
    f = _backtransform([np.zeros(11), np.ones(11)], g.h, 10, 10)
    assert f[10] == 0.0
    assert f[0] == pytest.approx(-1.0)


def test_cum_int_stops_at_undefined_cells():
    g = make_grid(5, 0.0, 1.0)
    v = np.array([1.0, 1.0, 1.0, np.nan, 1.0])
    f = _backtransform([np.zeros(5), v], g.h, 0, 0)
    assert not np.isnan(f[2])
    assert np.isnan(f[3]) and np.isnan(f[4])


# --- ftc_mean / ftc_cov -------------------------------------------------


def test_ftc_mean_equals_classical_under_full_observation():
    sample, _, xi = dgp.draw_sample("IndDis", n=30, p=501, seed=2)
    full = FunctionalSample(sample.grid, xi @ _fourier5(sample.grid.points).T)
    diff = ftc_mean(moments(full)) - mean_est(full)
    assert np.abs(diff).max() < 1e-4


def test_ftc_mean_matches_classical_on_observed_block():
    sample, _, _ = dgp.draw_sample("DepDis", n=50, p=101, seed=3)
    m_ftc = ftc_mean(moments(sample))
    m_cl = mean_est(sample)
    block = sample.mask.all(axis=0)
    assert np.array_equal(m_ftc[block], m_cl[block])


def test_ftc_mean_on_a_block_that_misses_t_1():
    # The run 1..4 is its own anchor block; below it no derivative is
    # observed, so the integral to t_1 is undefined.
    g = make_grid(5, 0.0, 1.0)
    s = FunctionalSample(g, np.array([[np.nan, 1.0, 2.0, 3.0, 4.0]]))
    m = moments(s)
    assert (m.l, m.u) == (1, 4)
    assert _nan_equal(ftc_mean(m), s.values[0])


def test_ftc_cov_equals_classical_under_full_observation():
    sample, _, xi = dgp.draw_sample("IndDis", n=40, p=201, seed=4)
    full = FunctionalSample(sample.grid, xi @ _fourier5(sample.grid.points).T)
    diff = cov_pair(moments(full))[1] - cov_est(full)
    assert np.abs(diff).max() < 1e-2


def test_ftc_cov_identical_curves_is_zero():
    g = make_grid(51, 0.0, 1.0)
    rng = np.random.default_rng(5)
    d = rng.uniform(0.5, 1.0, 20)
    d[0] = 1.0
    curve = np.sin(2 * np.pi * g.points) + g.points
    s = interval_sample(g, np.tile(curve, (20, 1)), d)
    # zero up to quadrature error of the separately integrated moment terms
    assert np.nanmax(np.abs(cov_pair(moments(s))[1])) < 1e-5


def test_ftc_cov_symmetry():
    sample, _, _ = dgp.draw_sample("DepCon", n=60, p=101, seed=6)
    c = cov_pair(moments(sample))[1]
    assert np.nanmax(np.abs(c - c.T)) < 1e-8


def test_ftc_cov_anchor_value_matches_classical():
    sample, d, _ = dgp.draw_sample("DepDis", n=40, p=101, seed=7)
    j = sample.grid.index_of(float(d.min()))
    assert cov_pair(moments(sample))[1][j, j] == cov_est(sample)[j, j]


# --- anchor blocks away from t_1 -----------------------------------------


def test_general_mean_reduces_to_interval_version():
    # Mirrored, the curves miss their beginnings and the block ends at t_p:
    # the back-transform mean is the interval version's reversed, bit for
    # bit (the end stencils and the integrals change sign exactly).
    sample, _, _ = dgp.draw_sample("DepCon", n=50, p=101, seed=8)
    mirrored = FunctionalSample(sample.grid, sample.values[:, ::-1])
    for K in (1, 2):
        assert _nan_equal(ftc_mean(moments(mirrored, K))[::-1], ftc_mean(moments(sample, K)))


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("observed", ["interval", "full"])
def test_every_fully_observed_anchor_gives_the_same_bytes(observed, K):
    # [l, u] is the runs' common part, so every grid point that every curve
    # observes is an accepted anchor, and the estimates there carry the
    # classical bytes: integrating back from any such d_f starts from the
    # same values. Every other grid point is rejected.
    sample, _, xi = dgp.draw_sample("DepCon", n=50, p=101, seed=9)
    if observed == "full":
        sample = FunctionalSample(sample.grid, xi @ _fourier5(sample.grid.points).T)
    m = moments(sample, K)
    mean, (classical, ftc) = ftc_mean(m), cov_pair(m)
    full = sample.mask.all(axis=0)
    assert full.sum() > 1 and full.all() == (observed == "full")
    for j, d_f in enumerate(sample.grid.points):
        if full[j]:
            assert anchor_index(m, float(d_f)) == j
            assert mean[j].tobytes() == m.mu[0][j].tobytes()
            assert ftc[j, full].tobytes() == classical[j, full].tobytes()
        else:
            with pytest.raises(ArgumentError, match="not observed for the full sample"):
                anchor_index(m, float(d_f))


def test_general_rejects_anchor_without_full_observation():
    sample, d, _ = dgp.draw_sample("DepDis", n=80, p=101, seed=11)
    assert d.min() < 0.75
    with pytest.raises(ArgumentError):
        anchor_index(moments(sample), 0.75)


def test_general_mean_mirrored_design_unbiased():
    # Missing beginnings instead of endings; anchor at the right endpoint.
    p, n, reps = 501, 500, 100
    g = make_grid(p, 0.0, 1.0)
    truth = dgp.true_mean(g.points)[::-1]
    acc_f = np.zeros(p)
    acc_c = np.zeros(p)
    for r in range(reps):
        s, _, _ = dgp.draw_sample("DepDis", n=n, p=p, seed=(9, r))
        mirrored = FunctionalSample(g, s.values[:, ::-1])
        acc_f += ftc_mean(moments(mirrored))
        acc_c += mean_est(mirrored)
    isb_f = np.trapezoid((acc_f / reps - truth) ** 2, dx=g.h)
    isb_c = np.trapezoid((acc_c / reps - truth) ** 2, dx=g.h)
    assert isb_f <= 0.05
    assert 2.9 <= isb_c <= 3.5


def test_general_cov_symmetry():
    # Mirrored, the curves miss their beginnings: the block ends at t_p.
    sample, _, _ = dgp.draw_sample("IndCon", n=50, p=101, seed=12)
    c = cov_pair(moments(FunctionalSample(sample.grid, sample.values[:, ::-1])))[1]
    assert np.nanmax(np.abs(c - c.T)) < 1e-8


# --- order-K back-transforms --------------------------------------------


def test_recursive_mean_full_observation_k2():
    sample, _, xi = dgp.draw_sample("IndDis", n=30, p=201, seed=15)
    full = FunctionalSample(sample.grid, xi @ _fourier5(sample.grid.points).T)
    cl = mean_est(full)
    assert np.abs(ftc_mean(moments(full, 2)) - cl).max() < 1e-3


def test_recursive_cov_full_observation_k2():
    sample, _, xi = dgp.draw_sample("IndDis", n=30, p=201, seed=16)
    full = FunctionalSample(sample.grid, xi @ _fourier5(sample.grid.points).T)
    cl = cov_est(full)
    assert np.abs(cov_pair(moments(full, 2))[1] - cl).max() < 5e-2


def test_recursive_mean_removes_second_order_dependence():
    # Endpoint tied to the first two monomial components: the classical and
    # one-fold estimates stay biased, the two-fold one does not.
    p, n, reps = 201, 500, 200
    g = make_grid(p, 0.0, 1.0)
    truth = dgp.true_mean(g.points, kind="V2")
    acc = {"cl": np.zeros(p), "k1": np.zeros(p), "k2": np.zeros(p)}
    for r in range(reps):
        s, _, _ = dgp.draw_sample("V2", n=n, p=p, seed=(13, r))
        acc["cl"] += mean_est(s)
        acc["k1"] += ftc_mean(moments(s, 1))
        acc["k2"] += ftc_mean(moments(s, 2))
    isb = {
        key: float(np.trapezoid((a / reps - truth) ** 2, dx=g.h))
        for key, a in acc.items()
    }
    assert isb["cl"] > 1.0
    assert isb["k1"] > 0.05
    assert isb["k2"] <= 0.1


@st.composite
def _identified_draws(draw):
    """Curves the order-K back-transform recovers exactly, complete and observed.

    Curve i is c_i + g(t) at K=1, or c_i + b_i t + g(t) at K=2, with g one
    quadratic on [0, 1]. Its contiguous run is ranked by c_i + b_i: the
    larger it is, the earlier the run starts and the later it ends. The
    lowest-ranked run is the block [l, u] every curve observes, with l > 0
    and u < p - 1; the top-ranked one is the whole grid, so every pair of
    grid points is observed together.
    """
    K = draw(st.sampled_from([1, 2]))
    p = draw(st.integers(K + 10, 80))
    n = draw(st.integers(3, 30))
    l = draw(st.integers(1, p - K - 3))
    u = draw(st.integers(l + K + 1, p - 2))
    ends = lambda lo, hi: np.sort(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)))
    first, last = ends(0, l)[::-1], ends(u, p - 1)
    first[[0, -1]], last[[0, -1]] = (l, 0), (u, p - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = make_grid(p, 0.0, 1.0)
    c = rng.standard_normal((n, 1))
    b = rng.standard_normal((n, 1)) if K == 2 else np.zeros((n, 1))
    complete = c + b * grid.points + np.polyval(rng.uniform(-3.0, 3.0, 3), grid.points)
    rank = np.argsort(np.argsort((c + b)[:, 0]))
    idx = np.arange(p)
    observed = (idx >= first[rank, None]) & (idx <= last[rank, None])
    return K, complete, FunctionalSample(grid, np.where(observed, complete, np.nan))


@settings(deadline=None, max_examples=100)
@given(draw=_identified_draws())
def test_backtransform_recovers_the_complete_data_estimates_exactly(draw):
    # The paper's identification claim, in finite samples: the stencils are
    # exact on quadratics, the trapezoid rule on the linear integrands, and
    # P reads only the block every curve observes. So the K-fold estimates
    # are the complete-data mean and covariance (divisor n) up to rounding,
    # however the runs depend on the coefficients.
    K, complete, sample = draw
    scale = np.abs(complete).max()
    m = moments(sample, K)
    assert 0 < m.l and m.u < sample.grid.p - 1
    mean = complete.mean(axis=0)
    centered = complete - mean
    assert np.abs(ftc_mean(m) - mean).max() <= 1e-12 * scale
    assert np.abs(cov_pair(m)[1] - centered.T @ centered / sample.n).max() <= 1e-10 * scale**2
    # The masks carry information: at t_p the classical mean misses the
    # lowest-ranked curve, whose value there is the lowest.
    assert m.mu[0][-1] - mean[-1] > 1e-6 * scale


def test_recursive_requires_enough_observed_points():
    g = make_grid(10, 0.0, 1.0)
    vals = np.tile(g.points, (2, 1))
    s = interval_sample(g, vals, [1.0, 2.5 / 9.0])  # second curve: 3 points
    with pytest.raises(ArgumentError, match=r"\(curve 2\)$"):
        moments(s, 2)


# --- dense-operator oracle ------------------------------------------------

# Per curve: first and last observed grid index on a 41-point grid. Curve 0
# observes everything in the first three, so every pair count is positive.
_BLOCKS = {
    "interval": ([0] * 8, [40, 20, 25, 31, 22, 38, 27, 35]),
    "interior": ([0, 5, 8, 3, 10, 2, 7, 9], [40, 30, 35, 28, 33, 38, 31, 29]),
    "ends_at_tp": ([0, 5, 8, 3, 10, 2, 7, 9], [40] * 8),
    # No curve observes both ends: pair counts vanish in two corners.
    "corners": ([0, 0, 0, 0, 12, 14, 16, 18], [24, 26, 28, 30, 40, 40, 40, 40]),
}


def _band_sample(name, seed=22):
    lo, hi = (np.asarray(x)[:, None] for x in _BLOCKS[name])
    g = make_grid(41, 0.0, 1.0)
    x = g.points
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((lo.size, 3)) @ np.vstack([np.ones(41), np.sin(3 * x), x**2])
    idx = np.arange(41)
    mask = (idx >= lo) & (idx <= hi)
    return FunctionalSample(g, np.where(mask, vals, np.nan))


def _reference_moments(sample, K):
    """(mu, S) of orders 0..K from differentiate and masked numpy alone.

    mu stacks the pointwise derivative means; S is the pairwise-complete
    covariance of all order pairs, masked where no curve observes a pair.
    """
    values = [sample.values]
    for _ in range(K):
        values.append(differentiate(values[-1], sample.first, sample.last, sample.grid.h))
    x = [np.ma.masked_array(v, ~sample.mask) for v in values]
    mu = np.ma.concatenate([xk.mean(axis=0) for xk in x]).filled(np.nan)
    c = np.ma.hstack([xk - xk.mean(axis=0) for xk in x]).filled(0.0)
    observed = np.tile(sample.mask, K + 1).astype(float)
    S = np.einsum("is,it->st", c, c) / np.ma.masked_equal(observed.T @ observed, 0)
    return mu, S


def _dense_operator(sample, K):
    """M_K = [P, WP, ..., W^(K-1) P, W^K] as a dense matrix, and its row support."""
    full = sample.mask.all(axis=0)
    block = np.flatnonzero(full)
    l, u = int(block[0]), int(block[-1])
    assert full[l: u + 1].all()
    p, h = sample.grid.p, sample.grid.h
    clip = np.clip(np.arange(p), l, u)
    P = np.zeros((p, p))
    P[np.arange(p), clip] = 1.0
    W = np.zeros((p, p))
    for i, a in enumerate(clip):
        lo, hi = min(a, i), max(a, i)
        if lo < hi:
            W[i, lo: hi + 1] = h
            W[i, [lo, hi]] = h / 2
            W[i] *= np.sign(i - a)
    Wk = [np.linalg.matrix_power(W, k) for k in range(K + 1)]
    M = np.hstack([Wk[k] @ P for k in range(K)] + [Wk[K]])
    return M, (P != 0) | (W != 0)


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("name", ["interval", "interior", "ends_at_tp"])
def test_ftc_estimators_equal_dense_operator(name, K):
    s = _band_sample(name)
    M, _ = _dense_operator(s, K)
    mu, S = _reference_moments(s, K)
    want_mean, want_cov = M @ mu, M @ S.filled(np.nan) @ M.T
    m = moments(s, K)
    got_mean, got_cov = ftc_mean(m), cov_pair(m)[1]
    assert np.abs(got_mean - want_mean).max() <= 1e-10 * np.abs(want_mean).max()
    assert np.abs(got_cov - want_cov).max() <= 1e-10 * np.abs(want_cov).max()


@pytest.mark.parametrize("K", [1, 2])
def test_ftc_cov_undefined_exactly_where_rectangle_lacks_pairs(K):
    # (s, t) is undefined iff [clip s, s] x [clip t, t] holds a zero pair count.
    s = _band_sample("corners")
    M, support = _dense_operator(s, K)
    maskf = s.mask.astype(float)
    zero = (maskf.T @ maskf == 0).astype(float)
    want_nan = support.astype(float) @ zero @ support.T.astype(float) > 0
    _, S = _reference_moments(s, K)
    got = cov_pair(moments(s, K))[1]
    assert want_nan.any() and not want_nan.all()
    assert np.array_equal(np.isnan(got), want_nan)
    want = M @ S.filled(0.0) @ M.T
    assert np.abs(got - want)[~want_nan].max() <= 1e-10 * np.abs(want).max()


# --- both covariances from one pass ---------------------------------------


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("name", ["interval", "interior", "corners"])
def test_cov_pair_equals_separate_estimators(name, K):
    # The classical estimates read from the moments equal the reference
    # estimators bit for bit.
    s = _band_sample(name)
    m = moments(s, K)
    assert np.array_equal(cov_pair(m)[0], cov_est(s), equal_nan=True)
    assert np.array_equal(m.mu[0], mean_est(s), equal_nan=True)


def _three_point_sample():
    g = make_grid(10, 0.0, 1.0)
    return interval_sample(g, np.tile(g.points, (2, 1)), [1.0, 2.5 / 9.0])


@pytest.mark.parametrize(
    "make, K, text",
    [
        (
            _three_point_sample,
            2,
            "order-2 stencils need >= 4 observed points per curve (curve 2)",
        ),
    ],
    ids=["too_few_points"],
)
def test_cov_pair_errors_match_ftc_cov(make, K, text):
    # moments raises the texts the back-transform covariance raised before
    # it read a Moments; the stencil error now also names the curve.
    with pytest.raises(ArgumentError) as exc:
        moments(make(), K)
    assert str(exc.value) == text


def _observed(runs):
    """Squares on a 9-point grid, curve i observed on the grid indices runs[i]."""
    g = make_grid(9, 0.0, 1.0)
    mask = np.zeros((len(runs), 9), dtype=bool)
    for row, idx in zip(mask, runs):
        row[list(idx)] = True
    return FunctionalSample(g, np.where(mask, g.points**2, np.nan))


# Curve 2 misses the grid point 0.25; every other point is fully observed.
_GAP = [range(9), [0, 1, 3, 4, 5, 6, 7, 8], range(9)]
# Curve 2 observes two points; curve 3 misses 0.25.
_SHORT_GAP = [range(9), [0, 1], [0, 1, 3, 4, 5, 6, 7, 8]]
# No column is observed by both curves.
_DISJOINT = [range(4), range(5, 9)]
# As _DISJOINT, with a gap (curve 2) or two points only (curve 2).
_DISJOINT_GAP = [range(4), [5, 7, 8]]
_DISJOINT_SHORT = [range(4), [7, 8]]


@pytest.mark.parametrize(
    "runs, K, text",
    [
        (_GAP, 0, "K must be >= 1"),
        (_SHORT_GAP, 1, "order-1 stencils need >= 3 observed points per curve (curve 2)"),
        (_DISJOINT_SHORT, 1, "order-1 stencils need >= 3 observed points per curve (curve 2)"),
        (_GAP, 1, "observed set of each curve must be contiguous (curve 2)"),
        (_DISJOINT_GAP, 1, "observed set of each curve must be contiguous (curve 2)"),
        (_DISJOINT, 1, "no grid point is observed by every curve"),
    ],
    ids=[
        "order_first",
        "stencil_before_contiguity",
        "stencil_before_empty_block",
        "contiguity",
        "contiguity_before_empty_block",
        "empty_block",
    ],
)
def test_moments_check_order(runs, K, text):
    # Where a sample fails two checks, the earlier one in moments' order
    # (K, stencils, contiguity, empty block) names the error.
    with pytest.raises(ArgumentError) as exc:
        moments(_observed(runs), K)
    assert str(exc.value) == text


def _anchor_run(mask, j_f):
    """Maximal contiguous block of fully observed columns containing j_f."""
    full = mask.all(axis=0)
    assert full[j_f]
    l = j_f
    while l > 0 and full[l - 1]:
        l -= 1
    u = j_f
    while u < full.size - 1 and full[u + 1]:
        u += 1
    return l, u


@st.composite
def _run_samples(draw):
    """Contiguous runs of >= K + 2 points that all cover grid index j_f."""
    p = draw(st.integers(5, 30))
    K = draw(st.sampled_from([1, 2, 3]))
    j_f = draw(st.integers(0, p - 1))
    n = draw(st.integers(1, 8))
    runs = []
    for _ in range(n):
        first = draw(st.integers(0, min(j_f, p - K - 2)))
        runs.append((first, draw(st.integers(max(j_f, first + K + 1), p - 1))))
    lo, hi = np.array(runs).T[:, :, None]
    idx = np.arange(p)
    mask = (idx >= lo) & (idx <= hi)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.where(mask, rng.standard_normal((n, p)), np.nan)
    sample = FunctionalSample(make_grid(p, 0.0, 1.0), values)
    return sample, j_f, K


@settings(deadline=None, max_examples=60)
@given(draw=_run_samples())
def test_anchor_block_is_the_fully_observed_run_around_the_anchor(draw):
    # Any grid point that every run covers lies in the one block.
    sample, j_f, K = draw
    m = moments(sample, K)
    assert (m.l, m.u) == _anchor_run(sample.mask, j_f)


@pytest.mark.parametrize(
    "block",
    [lambda l, u, p: l == u, lambda l, u, p: l == u and 0 < l < p - 1],
    ids=["one_column", "one_interior_column"],
)
def test_run_samples_draw_single_column_blocks(block):
    # The property tests on _run_samples cover single-column blocks, which
    # ftc_mean and cov_pair pass on as the two-column block [l, l + 1].
    find(_run_samples(), lambda d: block(*fully_observed_block(d[0]), d[0].grid.p))


@settings(deadline=None, max_examples=200)
@given(draw=_run_samples())
def test_run_pair_counts_equal_pair_counts(draw):
    # The runs include single curves, columns nobody observes and anchor
    # blocks with l > 0 and u < p - 1, whose corners are counted directly.
    sample = draw[0]
    l, u = int(sample.first.max()), int(sample.last.min())
    counts = _run_pair_counts(sample.mask, l, u)
    assert np.array_equal(counts, pair_counts(sample.mask), equal_nan=True)


def _separate_backtransform(levels, h, l, u, axis):
    """Each Horner step as a take plus a separately integrated array."""

    def integrate(v):
        v = np.moveaxis(v, axis, 0)
        out = np.zeros_like(v)
        if u < v.shape[0] - 1:
            out[u + 1:] = np.cumsum(0.5 * h * (v[u:-1] + v[u + 1:]), axis=0)
        if l > 0:
            seg = 0.5 * h * (v[:l] + v[1: l + 1])
            out[:l] = -np.cumsum(seg[::-1], axis=0)[::-1]
        return np.moveaxis(out, 0, axis)

    clip = np.clip(np.arange(levels[0].shape[axis]), l, u)
    out = levels[-1]
    for m in reversed(levels[:-1]):
        out = np.take(m, clip, axis=axis) + integrate(out)
    return out


def _same_bits(got, want):
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.int64), want[~nan].view(np.int64)
    )


@settings(deadline=None, max_examples=200)
@given(
    p=st.integers(3, 12),
    K=st.integers(1, 3),
    axis=st.sampled_from([0, 1]),
    transposed=st.booleans(),
    block=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_backtransform_keeps_the_bits_of_separate_integrals(p, K, axis, transposed, block, seed):
    # Signed zeros, repeated values and NaN holes exercise the signs of
    # zero sums and where each integral stops; transposed levels are views
    # like the S[b, a] blocks of cov_pair.
    l = block.draw(st.integers(0, p - 1))
    u = block.draw(st.integers(l, p - 1))
    rng = np.random.default_rng(seed)
    shape = (K + 1, p, p)
    special = rng.choice([np.nan, -0.0, 0.0, 1.0, -1.0, 0.5], shape)
    levels = np.where(rng.random(shape) < 0.5, rng.standard_normal(shape), special)
    levels = [x.T if transposed else x for x in levels]
    h = 1.0 / (p - 1)
    got = _backtransform(levels, h, l, u, axis)
    assert _same_bits(got, _separate_backtransform(levels, h, l, u, axis))


@settings(deadline=None, max_examples=30)
@given(
    kind=st.sampled_from(dgp.KINDS),
    n=st.integers(5, 40),
    p=st.integers(21, 51),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-100.0, 100.0),
)
def test_cov_pair_level_shift_invariant_and_symmetric(kind, n, p, seed, shift):
    sample, _, _ = dgp.draw_sample(kind, n=n, p=p, seed=seed)
    shifted = FunctionalSample(sample.grid, sample.values + shift)
    pairs = cov_pair(moments(shifted)), cov_pair(moments(sample))
    for got, want in zip(*pairs):
        scale = np.nanmax(np.abs(want))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) <= 1e-12 * (1 + abs(shift)) * scale
    for classical, ftc in pairs:
        assert _nan_equal(classical, classical.T)
        assert _nan_equal(ftc, ftc.T)


def _moment_draw(kind, n, p, seed, K):
    return dgp.draw_sample(kind, n=n, p=p, seed=seed)[0], K


_moment_draws = st.builds(
    _moment_draw,
    kind=st.sampled_from(dgp.KINDS),
    n=st.integers(5, 40),
    p=st.integers(21, 51),
    seed=st.integers(0, 2**32 - 1),
    K=st.sampled_from([1, 2, 3]),
)


@settings(deadline=None, max_examples=30)
@given(draw=_moment_draws)
def test_back_transform_equals_classical_on_anchor_block(draw):
    sample, K = draw
    m = moments(sample, K)
    block = slice(m.l, m.u + 1)
    classical, ftc = cov_pair(m)
    assert np.array_equal(ftc_mean(m)[block], m.mu[0][block])
    assert np.array_equal(ftc[block, block], classical[block, block])


@settings(deadline=None, max_examples=30)
@given(draw=_moment_draws, perm_seed=st.integers(0, 2**32 - 1))
def test_estimates_invariant_to_curve_order(draw, perm_seed):
    sample, K = draw
    order = np.random.default_rng(perm_seed).permutation(sample.n)
    permuted = FunctionalSample(sample.grid, sample.values[order])

    def estimates(s):
        m = moments(s, K)
        return [mean_est(s), cov_est(s), ftc_mean(m), *cov_pair(m)]

    for got, want in zip(estimates(permuted), estimates(sample)):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        scale = np.nanmax(np.abs(want))
        assert np.nanmax(np.abs(got - want)) <= 1e-12 * scale


@settings(deadline=None, max_examples=200)
@given(
    draw=_run_samples().map(lambda d: (d[0], d[2])) | _moment_draws
)
def test_edge_only_estimates_match_the_full_square(draw):
    # Blocks so narrow that the edges' differentiation windows meet, and
    # wide ones, whose edges are differentiated apart; blocks with l > 0 or
    # u < p - 1, single-column blocks, and corners without pairs.
    sample, K = draw
    m = moments(sample, K)
    mean, classical, ftc = full_square_estimates(sample, m.l, m.u, K)
    assert _same_bits(ftc_mean(m), mean)
    got_classical, got = cov_pair(m)
    assert _same_bits(got_classical, classical)
    assert np.array_equal(np.isnan(got), np.isnan(ftc))
    assert np.nanmax(np.abs(got - ftc)) <= 1e-14 * np.nanmax(np.abs(ftc))


@settings(deadline=None, max_examples=200)
@given(draw=_run_samples())
def test_back_transform_cov_equals_its_transpose_bit_for_bit(draw):
    sample, _, K = draw
    ftc = cov_pair(moments(sample, K))[1]
    assert _same_bits(ftc, ftc.T)


# --- refinement rates ----------------------------------------------------


def test_mean_back_transform_error_is_second_order_in_h():
    # Identical curves: the classical mean is exact wherever defined, so the
    # deviation of the back-transform is pure quadrature/stencil error.
    def err(p):
        s = identical_curve_sample(p)
        return np.nanmax(np.abs(ftc_mean(moments(s)) - mean_est(s)))

    ratio = err(101) / err(201)
    assert 3.0 <= ratio <= 5.0


def test_cov_back_transform_error_is_second_order_in_h():
    # Richardson-style check: successive grid refinements shrink the
    # estimate change by about 4 when the error is O(h^2).
    def est(p):
        g = make_grid(p, 0.0, 1.0)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(40)
        d = rng.uniform(0.5, 1.0, 40)
        d[0] = 1.0
        psi = np.sin(2 * np.pi * g.points) + 0.3 * np.cos(4 * np.pi * g.points) + g.points**2
        s = interval_sample(g, 2.0 + c[:, None] * psi[None, :], d)
        return cov_pair(moments(s))[1]

    p = 101
    a, b, c = est(p), est(2 * p - 1), est(4 * p - 3)
    d1 = np.nanmax(np.abs(a - b[::2, ::2]))
    d2 = np.nanmax(np.abs(b - c[::2, ::2]))
    assert 2.8 <= d1 / d2 <= 5.5


# --- linearity and shift invariances -------------------------------------


def test_shift_invariances():
    sample, d, _ = dgp.draw_sample("DepDis", n=30, p=101, seed=17)
    shifted = FunctionalSample(sample.grid, sample.values + 3.0)
    assert np.allclose(
        mean_est(shifted), mean_est(sample) + 3.0, equal_nan=True
    )
    m_shifted, m = moments(shifted), moments(sample)
    assert np.allclose(m_shifted.mu[1], m.mu[1], equal_nan=True, atol=1e-10)
    assert np.allclose(
        cov_est(shifted), cov_est(sample), equal_nan=True, atol=1e-10
    )
    assert np.allclose(
        ftc_mean(m_shifted), ftc_mean(m) + 3.0, equal_nan=True, atol=1e-9
    )
    assert np.allclose(
        cov_pair(m_shifted)[1], cov_pair(m)[1], equal_nan=True, atol=1e-9
    )


def test_mean_est_linear_in_values():
    g = make_grid(51, 0.0, 1.0)
    rng = np.random.default_rng(18)
    mask = g.points[None, :] <= rng.uniform(0.5, 1.0, (8, 1))
    a = np.where(mask, rng.standard_normal((8, 51)), np.nan)
    b = np.where(mask, rng.standard_normal((8, 51)), np.nan)
    sa = FunctionalSample(g, a)
    sb = FunctionalSample(g, b)
    sab = FunctionalSample(g, 2 * a + b)
    assert np.allclose(
        mean_est(sab),
        2 * mean_est(sa) + mean_est(sb),
        equal_nan=True,
    )


# --- consistency rate surrogate ------------------------------------------


def test_rmse_halves_when_n_quadruples():
    def rmse(n, reps=400, p=201):
        truth = dgp.true_mean(0.75)
        errs = np.empty(reps)
        for r in range(reps):
            s, _, _ = dgp.draw_sample("DepDis", n=n, p=p, seed=(7, r))
            errs[r] = ftc_mean(moments(s))[150] - truth
        return float(np.sqrt(np.mean(errs**2)))

    ratio = rmse(125) / rmse(500)
    assert 1.6 <= ratio <= 2.4


# --- principal component scores ------------------------------------------


def test_fpca_rank_one_sample():
    g = make_grid(101, 0.0, 1.0)
    rng = np.random.default_rng(19)
    c = rng.standard_normal(40)
    shape = np.sin(2 * np.pi * g.points) + 2.0
    s = FunctionalSample(g, c[:, None] * shape[None, :])
    scores, explained = fpca_scores(s)
    assert explained[0] == pytest.approx(1.0, abs=1e-8)
    centered = c - c.mean()
    corr = np.corrcoef(scores[:, 0], centered)[0, 1]
    assert abs(corr) > 1.0 - 1e-10


def test_fpca_recovers_variance_fractions():
    sample, _, xi = dgp.draw_sample("IndDis", n=500, p=201, seed=20)
    full = FunctionalSample(sample.grid, xi @ _fourier5(sample.grid.points).T)
    _, explained = fpca_scores(full)
    target = np.asarray(dgp.DEFAULT_LAMBDA) / sum(dgp.DEFAULT_LAMBDA)
    assert np.abs(explained[:5] - target).max() < 0.02


def test_fpca_explained_sums_to_one():
    sample, _, _ = dgp.draw_sample("DepCon", n=60, p=101, seed=21)
    _, explained = fpca_scores(sample)
    assert explained.sum() == pytest.approx(1.0)
    assert np.all(np.diff(explained) <= 1e-12)


def test_fpca_degenerate_sample():
    g = make_grid(51, 0.0, 1.0)
    s = FunctionalSample(g, np.tile(np.cos(g.points), (5, 1)))
    scores, explained = fpca_scores(s)
    assert scores.shape == (5, 0)
    assert explained.size == 0
