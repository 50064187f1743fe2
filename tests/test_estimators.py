import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcfd import dgp
from ftcfd.core import FunctionalSample, make_grid
from ftcfd.errors import ArgumentError
from ftcfd.estimators import (
    _integrate,
    cov_est,
    cov_pair,
    differentiate,
    fpca_scores,
    ftc_mean,
    mean_est,
    moments,
)


def _interval_sample(grid, values, d):
    mask = grid.points[None, :] <= np.asarray(d)[:, None]
    return FunctionalSample(grid, np.where(mask, values, np.nan), mask)


def _nan_equal(a, b):
    return np.array_equal(np.nan_to_num(a, nan=-1.25e308), np.nan_to_num(b, nan=-1.25e308))


# --- mean_est -----------------------------------------------------------


def test_mean_est_fully_observed():
    g = make_grid(5, 0.0, 1.0)
    vals = np.arange(10.0).reshape(2, 5)
    s = FunctionalSample.from_values(g, vals)
    assert np.allclose(mean_est(s).values, vals.mean(axis=0))


def test_mean_est_single_observer():
    g = make_grid(3, 0.0, 1.0)
    s = FunctionalSample.from_values(
        g, np.array([[1.0, 2.0, 7.0], [3.0, 4.0, np.nan]])
    )
    assert mean_est(s).values[2] == 7.0


def test_mean_est_undefined_where_nobody_observed():
    g = make_grid(4, 0.0, 1.0)
    s = _interval_sample(g, np.ones((3, 4)), [1 / 3, 1 / 3, 2 / 3])
    assert np.isnan(mean_est(s).values[3])


def test_mean_est_selection_bias_at_three_quarters():
    target = dgp.true_mean(0.75) + math.sqrt(2.0 * 10.0 / math.pi)
    acc = 0.0
    reps = 100
    for r in range(reps):
        s, _, _ = dgp.draw_sample(dgp.DgpConfig("DepDis", n=500, p=101, seed=(100, r)))
        acc += mean_est(s).values[75]
    assert abs(acc / reps - target) < 0.25


# --- differentiate ------------------------------------------------------


def test_differentiate_exact_on_linear():
    g = make_grid(21, 0.0, 1.0)
    s = FunctionalSample.from_values(g, (1.5 + 2.5 * g.points)[None, :])
    d = differentiate(s)
    assert np.allclose(d.values, 2.5, atol=1e-12)


def test_differentiate_sine_accuracy():
    g = make_grid(501, 0.0, 1.0)
    s = FunctionalSample.from_values(g, np.sin(2 * np.pi * g.points)[None, :])
    d = differentiate(s)
    err = np.abs(d.values[0] - 2 * np.pi * np.cos(2 * np.pi * g.points))
    assert err.max() < 1e-3


def test_differentiate_preserves_mask():
    g = make_grid(11, 0.0, 1.0)
    s = _interval_sample(g, np.tile(g.points**2, (1, 1)), [0.5])
    d = differentiate(s)
    assert np.array_equal(d.mask, s.mask)
    observed = d.values[0][s.mask[0]]
    assert np.allclose(observed, 2 * g.points[s.mask[0]], atol=1e-10)


def test_differentiate_rejects_non_contiguous():
    # The error names the first offending curve by its 1-based row.
    g = make_grid(5, 0.0, 1.0)
    s = FunctionalSample.from_values(
        g, np.array([[0.0, 1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 2.0, 3.0, 4.0]])
    )
    with pytest.raises(ArgumentError, match=r"must be contiguous \(curve 2\)$"):
        differentiate(s)


def test_differentiate_rejects_short_runs():
    g = make_grid(5, 0.0, 1.0)
    s = FunctionalSample.from_values(
        g,
        np.array(
            [[0.0, 1.0, 2.0, np.nan, np.nan]]
            + 2 * [[1.0, 2.0, np.nan, np.nan, np.nan]]
        ),
    )
    with pytest.raises(ArgumentError, match=r">= 3 observed points .* \(curve 2\)$"):
        differentiate(s)


# --- cov_est ------------------------------------------------------------


def test_cov_est_fully_observed_divisor_n():
    g = make_grid(4, 0.0, 1.0)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((6, 4))
    s = FunctionalSample.from_values(g, vals)
    expected = np.cov(vals.T, bias=True)
    assert np.allclose(cov_est(s).values, expected, atol=1e-12)


def test_cov_est_identical_curves_zero():
    g = make_grid(6, 0.0, 1.0)
    s = _interval_sample(g, np.tile(np.sin(g.points), (5, 1)), [1.0, 0.6, 0.8, 1.0, 0.6])
    c = cov_est(s).values
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
    sample, _, _ = dgp.draw_sample(dgp.DgpConfig(kind, n=n, p=p, seed=1))
    for c in (cov_est(sample).values, cov_pair(moments(sample))[0].values):
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
        s = FunctionalSample.from_values(g, vals)
        acc += cov_est(s).values
    assert np.abs(acc / reps - truth).max() < 1.5


def _fourier5(points):
    from ftcfd.basis import BasisSpec, eval_basis

    return eval_basis(BasisSpec(5, (0.0, 1.0)), points)


# --- cumulative integral ------------------------------------------------


def test_cum_int_constant():
    g = make_grid(11, 0.0, 1.0)
    f = _integrate(np.ones(11), g.h, 0, 0)
    assert np.allclose(f, g.points, atol=1e-14)


def test_cum_int_exact_on_linear_integrand():
    g = make_grid(501, 0.0, 1.0)
    f = _integrate(2 * g.points, g.h, 0, 0)
    assert np.allclose(f, g.points**2, atol=1e-12)


def test_cum_int_cosine_accuracy():
    g = make_grid(501, 0.0, 1.0)
    f = _integrate(np.cos(2 * np.pi * g.points), g.h, 0, 0)
    assert np.abs(f - np.sin(2 * np.pi * g.points) / (2 * np.pi)).max() < 5e-6


def test_cum_int_signed_below_anchor():
    g = make_grid(11, 0.0, 1.0)
    f = _integrate(np.ones(11), g.h, 10, 10)
    assert f[10] == 0.0
    assert f[0] == pytest.approx(-1.0)


def test_cum_int_stops_at_undefined_cells():
    g = make_grid(5, 0.0, 1.0)
    v = np.array([1.0, 1.0, 1.0, np.nan, 1.0])
    f = _integrate(v, g.h, 0, 0)
    assert not np.isnan(f[2])
    assert np.isnan(f[3]) and np.isnan(f[4])


# --- ftc_mean / ftc_cov -------------------------------------------------


def test_ftc_mean_equals_classical_under_full_observation():
    sample, _, xi = dgp.draw_sample(dgp.DgpConfig("IndDis", n=30, p=501, seed=2))
    full = FunctionalSample.from_values(sample.grid, xi @ _fourier5(sample.grid.points).T)
    diff = ftc_mean(moments(full)).values - mean_est(full).values
    assert np.abs(diff).max() < 1e-4


def test_ftc_mean_matches_classical_on_observed_block():
    sample, _, _ = dgp.draw_sample(dgp.DgpConfig("DepDis", n=50, p=101, seed=3))
    m_ftc = ftc_mean(moments(sample)).values
    m_cl = mean_est(sample).values
    block = sample.mask.all(axis=0)
    assert np.array_equal(m_ftc[block], m_cl[block])


def test_ftc_mean_rejects_non_interval_pattern():
    g = make_grid(5, 0.0, 1.0)
    s = FunctionalSample.from_values(g, np.array([[np.nan, 1.0, 2.0, 3.0, 4.0]]))
    with pytest.raises(ArgumentError):
        ftc_mean(moments(s))


def test_ftc_cov_equals_classical_under_full_observation():
    sample, _, xi = dgp.draw_sample(dgp.DgpConfig("IndDis", n=40, p=201, seed=4))
    full = FunctionalSample.from_values(sample.grid, xi @ _fourier5(sample.grid.points).T)
    diff = cov_pair(moments(full))[1].values - cov_est(full).values
    assert np.abs(diff).max() < 1e-2


def test_ftc_cov_identical_curves_is_zero():
    g = make_grid(51, 0.0, 1.0)
    rng = np.random.default_rng(5)
    d = rng.uniform(0.5, 1.0, 20)
    d[0] = 1.0
    curve = np.sin(2 * np.pi * g.points) + g.points
    s = _interval_sample(g, np.tile(curve, (20, 1)), d)
    # zero up to quadrature error of the separately integrated moment terms
    assert np.nanmax(np.abs(cov_pair(moments(s))[1].values)) < 1e-5


def test_ftc_cov_symmetry():
    sample, _, _ = dgp.draw_sample(dgp.DgpConfig("DepCon", n=60, p=101, seed=6))
    c = cov_pair(moments(sample))[1].values
    assert np.nanmax(np.abs(c - c.T)) < 1e-8


def test_ftc_cov_anchor_value_matches_classical():
    sample, d, _ = dgp.draw_sample(dgp.DgpConfig("DepDis", n=40, p=101, seed=7))
    j = sample.grid.index_of(float(d.min()))
    assert cov_pair(moments(sample))[1].values[j, j] == cov_est(sample).values[j, j]


# --- explicit anchors ---------------------------------------------------


def test_general_mean_reduces_to_interval_version():
    # Without d_f the anchor is d_min; naming it explicitly changes nothing.
    sample, d, _ = dgp.draw_sample(dgp.DgpConfig("DepCon", n=50, p=101, seed=8))
    a = ftc_mean(moments(sample)).values
    b = ftc_mean(moments(sample, float(d.min()))).values
    assert _nan_equal(a, b)


def test_general_cov_reduces_to_interval_version():
    sample, d, _ = dgp.draw_sample(dgp.DgpConfig("DepCon", n=50, p=101, seed=9))
    a = cov_pair(moments(sample))[1].values
    b = cov_pair(moments(sample, float(d.min())))[1].values
    assert np.nanmax(np.abs(a - b)) < 1e-10


def test_general_mean_any_anchor_under_full_observation():
    sample, _, xi = dgp.draw_sample(dgp.DgpConfig("IndDis", n=30, p=201, seed=10))
    full = FunctionalSample.from_values(sample.grid, xi @ _fourier5(sample.grid.points).T)
    cl = mean_est(full).values
    for d_f in (0.1, 0.5, 0.9):
        assert np.abs(ftc_mean(moments(full, d_f)).values - cl).max() < 1e-4


def test_general_rejects_anchor_without_full_observation():
    sample, d, _ = dgp.draw_sample(dgp.DgpConfig("DepDis", n=80, p=101, seed=11))
    with pytest.raises(ArgumentError):
        ftc_mean(moments(sample, 0.75))


def test_general_mean_mirrored_design_unbiased():
    # Missing beginnings instead of endings; anchor at the right endpoint.
    p, n, reps = 501, 500, 100
    g = make_grid(p, 0.0, 1.0)
    truth = dgp.true_mean(g.points)[::-1]
    acc_f = np.zeros(p)
    acc_c = np.zeros(p)
    for r in range(reps):
        s, _, _ = dgp.draw_sample(dgp.DgpConfig("DepDis", n=n, p=p, seed=(9, r)))
        mirrored = FunctionalSample(g, s.values[:, ::-1].copy(), s.mask[:, ::-1].copy())
        acc_f += ftc_mean(moments(mirrored, 1.0)).values
        acc_c += mean_est(mirrored).values
    isb_f = np.trapezoid((acc_f / reps - truth) ** 2, dx=g.h)
    isb_c = np.trapezoid((acc_c / reps - truth) ** 2, dx=g.h)
    assert isb_f <= 0.05
    assert 2.9 <= isb_c <= 3.5


def test_general_cov_symmetry():
    sample, d, _ = dgp.draw_sample(dgp.DgpConfig("IndCon", n=50, p=101, seed=12))
    c = cov_pair(moments(sample, float(d.min())))[1].values
    assert np.nanmax(np.abs(c - c.T)) < 1e-8


# --- order-K back-transforms --------------------------------------------


def test_recursive_mean_full_observation_k2():
    sample, _, xi = dgp.draw_sample(dgp.DgpConfig("IndDis", n=30, p=201, seed=15))
    full = FunctionalSample.from_values(sample.grid, xi @ _fourier5(sample.grid.points).T)
    cl = mean_est(full).values
    assert np.abs(ftc_mean(moments(full, 0.5, 2)).values - cl).max() < 1e-3


def test_recursive_cov_full_observation_k2():
    sample, _, xi = dgp.draw_sample(dgp.DgpConfig("IndDis", n=30, p=201, seed=16))
    full = FunctionalSample.from_values(sample.grid, xi @ _fourier5(sample.grid.points).T)
    cl = cov_est(full).values
    assert np.abs(cov_pair(moments(full, 0.5, 2))[1].values - cl).max() < 5e-2


def test_recursive_mean_removes_second_order_dependence():
    # Endpoint tied to the first two monomial components: the classical and
    # one-fold estimates stay biased, the two-fold one does not.
    p, n, reps = 201, 500, 200
    g = make_grid(p, 0.0, 1.0)
    truth = dgp.true_mean(g.points, kind="V2")
    acc = {"cl": np.zeros(p), "k1": np.zeros(p), "k2": np.zeros(p)}
    for r in range(reps):
        s, d, _ = dgp.draw_sample(dgp.DgpConfig("V2", n=n, p=p, seed=(13, r)))
        anchor = float(d.min())
        acc["cl"] += mean_est(s).values
        acc["k1"] += ftc_mean(moments(s, anchor, 1)).values
        acc["k2"] += ftc_mean(moments(s, anchor, 2)).values
    isb = {
        key: float(np.trapezoid((a / reps - truth) ** 2, dx=g.h))
        for key, a in acc.items()
    }
    assert isb["cl"] > 1.0
    assert isb["k1"] > 0.05
    assert isb["k2"] <= 0.1


def test_recursive_requires_enough_observed_points():
    g = make_grid(10, 0.0, 1.0)
    vals = np.tile(g.points, (2, 1))
    s = _interval_sample(g, vals, [1.0, 2.5 / 9.0])  # second curve: 3 points
    with pytest.raises(ArgumentError, match=r"\(curve 2\)$"):
        moments(s, 0.1, 2)


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
    return FunctionalSample(g, np.where(mask, vals, np.nan), mask)


def _reference_moments(sample, K):
    """(mu, S) of orders 0..K from differentiate and masked numpy alone.

    mu stacks the pointwise derivative means; S is the pairwise-complete
    covariance of all order pairs, masked where no curve observes a pair.
    """
    chain = [sample]
    for _ in range(K):
        chain.append(differentiate(chain[-1]))
    x = [np.ma.masked_array(d.values, ~d.mask) for d in chain]
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
    m = moments(s, 0.5, K)
    got_mean, got_cov = ftc_mean(m).values, cov_pair(m)[1].values
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
    got = cov_pair(moments(s, 0.5, K))[1].values
    assert want_nan.any() and not want_nan.all()
    assert np.array_equal(np.isnan(got), want_nan)
    want = M @ S.filled(0.0) @ M.T
    assert np.abs(got - want)[~want_nan].max() <= 1e-10 * np.abs(want).max()


# --- both covariances from one pass ---------------------------------------


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize(
    "name, d_f", [("interval", None), ("interior", 0.5), ("corners", 0.5)]
)
def test_cov_pair_equals_separate_estimators(name, d_f, K):
    # The classical estimates read from the moments equal the anchor-free
    # estimators bit for bit; only the back-transform carries the anchor.
    s = _band_sample(name)
    m = moments(s, d_f, K)
    classical, ftc = cov_pair(m)
    assert np.array_equal(classical.values, cov_est(s).values, equal_nan=True)
    assert np.array_equal(m.mu[0], mean_est(s).values, equal_nan=True)
    assert classical.anchor is None and m.anchor is not None
    assert ftc.anchor == ftc_mean(m).anchor == m.anchor


def _three_point_sample():
    g = make_grid(10, 0.0, 1.0)
    return _interval_sample(g, np.tile(g.points, (2, 1)), [1.0, 2.5 / 9.0])


@pytest.mark.parametrize(
    "make, d_f, K, text",
    [
        (
            lambda: _band_sample("interior"),
            None,
            1,
            "sample does not have the interval observation pattern; "
            "pass an explicit anchor d_f (--d-f)",
        ),
        (lambda: _band_sample("interval"), 7.0, 1, "7.0 is not on the grid [0.0, 1.0]"),
        (
            _three_point_sample,
            0.1,
            2,
            "order-2 stencils need >= 4 observed points per curve (curve 2)",
        ),
    ],
    ids=["non_interval", "off_grid", "too_few_points"],
)
def test_cov_pair_errors_match_ftc_cov(make, d_f, K, text):
    # moments raises the texts the back-transform covariance raised before
    # it read a Moments; the stencil error now also names the curve.
    with pytest.raises(ArgumentError) as exc:
        moments(make(), d_f, K)
    assert str(exc.value) == text


@settings(deadline=None, max_examples=30)
@given(
    kind=st.sampled_from(dgp.KINDS),
    n=st.integers(5, 40),
    p=st.integers(21, 51),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-100.0, 100.0),
)
def test_cov_pair_level_shift_invariant_and_symmetric(kind, n, p, seed, shift):
    sample, _, _ = dgp.draw_sample(dgp.DgpConfig(kind, n=n, p=p, seed=seed))
    shifted = FunctionalSample(sample.grid, sample.values + shift, sample.mask)
    pairs = cov_pair(moments(shifted)), cov_pair(moments(sample))
    for got, want in zip(*pairs):
        scale = np.nanmax(np.abs(want.values))
        assert np.array_equal(np.isnan(got.values), np.isnan(want.values))
        assert np.nanmax(np.abs(got.values - want.values)) <= 1e-12 * (1 + abs(shift)) * scale
    for classical, _ in pairs:
        assert _nan_equal(classical.values, classical.values.T)


def _moment_draw(kind, n, p, seed, d_f_frac, K):
    sample = dgp.draw_sample(dgp.DgpConfig(kind, n=n, p=p, seed=seed))[0]
    # Every design observes [0, 0.5] fully, and d_f snaps to the nearest grid
    # point: a d_f up to the last grid point <= 0.5 snaps into that block.
    pts = sample.grid.points
    d_f = None if d_f_frac is None else d_f_frac * pts[pts <= 0.5][-1]
    return sample, d_f, K


_moment_draws = st.builds(
    _moment_draw,
    kind=st.sampled_from(dgp.KINDS),
    n=st.integers(5, 40),
    p=st.integers(21, 51),
    seed=st.integers(0, 2**32 - 1),
    d_f_frac=st.none() | st.floats(0.0, 1.0),
    K=st.sampled_from([1, 2]),
)


@settings(deadline=None, max_examples=30)
@given(draw=_moment_draws)
def test_back_transform_equals_classical_on_anchor_block(draw):
    sample, d_f, K = draw
    m = moments(sample, d_f, K)
    block = slice(m.l, m.u + 1)
    classical, ftc = cov_pair(m)
    assert np.array_equal(ftc_mean(m).values[block], m.mu[0][block])
    assert np.array_equal(ftc.values[block, block], classical.values[block, block])


@settings(deadline=None, max_examples=30)
@given(draw=_moment_draws, perm_seed=st.integers(0, 2**32 - 1))
def test_estimates_invariant_to_curve_order(draw, perm_seed):
    sample, d_f, K = draw
    order = np.random.default_rng(perm_seed).permutation(sample.n)
    permuted = FunctionalSample(sample.grid, sample.values[order], sample.mask[order])

    def estimates(s):
        m = moments(s, d_f, K)
        return [mean_est(s), cov_est(s), ftc_mean(m), *cov_pair(m)]

    for got, want in zip(estimates(permuted), estimates(sample)):
        assert np.array_equal(np.isnan(got.values), np.isnan(want.values))
        scale = np.nanmax(np.abs(want.values))
        assert np.nanmax(np.abs(got.values - want.values)) <= 1e-12 * scale


# --- refinement rates ----------------------------------------------------


def _identical_curve_sample(p, seed=0):
    g = make_grid(p, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    curve = np.sin(2 * np.pi * g.points) + 0.5 * np.cos(4 * np.pi * g.points)
    d = rng.uniform(0.5, 1.0, 30)
    d[0] = 1.0
    return _interval_sample(g, np.tile(curve, (30, 1)), d)


def test_mean_back_transform_error_is_second_order_in_h():
    # Identical curves: the classical mean is exact wherever defined, so the
    # deviation of the back-transform is pure quadrature/stencil error.
    def err(p):
        s = _identical_curve_sample(p)
        return np.nanmax(np.abs(ftc_mean(moments(s)).values - mean_est(s).values))

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
        s = _interval_sample(g, 2.0 + c[:, None] * psi[None, :], d)
        return cov_pair(moments(s))[1].values

    p = 101
    a, b, c = est(p), est(2 * p - 1), est(4 * p - 3)
    d1 = np.nanmax(np.abs(a - b[::2, ::2]))
    d2 = np.nanmax(np.abs(b - c[::2, ::2]))
    assert 2.8 <= d1 / d2 <= 5.5


# --- linearity and shift invariances -------------------------------------


def test_shift_invariances():
    sample, d, _ = dgp.draw_sample(dgp.DgpConfig("DepDis", n=30, p=101, seed=17))
    shifted = FunctionalSample(sample.grid, sample.values + 3.0, sample.mask)
    assert np.allclose(
        mean_est(shifted).values, mean_est(sample).values + 3.0, equal_nan=True
    )
    m_shifted, m = moments(shifted), moments(sample)
    assert np.allclose(m_shifted.mu[1], m.mu[1], equal_nan=True, atol=1e-10)
    assert np.allclose(
        cov_est(shifted).values, cov_est(sample).values, equal_nan=True, atol=1e-10
    )
    assert np.allclose(
        ftc_mean(m_shifted).values, ftc_mean(m).values + 3.0, equal_nan=True, atol=1e-9
    )
    assert np.allclose(
        cov_pair(m_shifted)[1].values, cov_pair(m)[1].values, equal_nan=True, atol=1e-9
    )


def test_mean_est_linear_in_values():
    g = make_grid(51, 0.0, 1.0)
    rng = np.random.default_rng(18)
    mask = g.points[None, :] <= rng.uniform(0.5, 1.0, (8, 1))
    a = np.where(mask, rng.standard_normal((8, 51)), np.nan)
    b = np.where(mask, rng.standard_normal((8, 51)), np.nan)
    sa = FunctionalSample(g, a, mask)
    sb = FunctionalSample(g, b, mask)
    sab = FunctionalSample(g, np.where(mask, 2 * a + b, np.nan), mask)
    assert np.allclose(
        mean_est(sab).values,
        2 * mean_est(sa).values + mean_est(sb).values,
        equal_nan=True,
    )


# --- consistency rate surrogate ------------------------------------------


def test_rmse_halves_when_n_quadruples():
    def rmse(n, reps=400, p=201):
        truth = dgp.true_mean(0.75)
        errs = np.empty(reps)
        for r in range(reps):
            s, _, _ = dgp.draw_sample(dgp.DgpConfig("DepDis", n=n, p=p, seed=(7, r)))
            errs[r] = ftc_mean(moments(s)).values[150] - truth
        return float(np.sqrt(np.mean(errs**2)))

    ratio = rmse(125) / rmse(500)
    assert 1.6 <= ratio <= 2.4


# --- principal component scores ------------------------------------------


def test_fpca_rank_one_sample():
    g = make_grid(101, 0.0, 1.0)
    rng = np.random.default_rng(19)
    c = rng.standard_normal(40)
    shape = np.sin(2 * np.pi * g.points) + 2.0
    s = FunctionalSample.from_values(g, c[:, None] * shape[None, :])
    scores, explained = fpca_scores(s, (0.0, 1.0))
    assert explained[0] == pytest.approx(1.0, abs=1e-8)
    centered = c - c.mean()
    corr = np.corrcoef(scores[:, 0], centered)[0, 1]
    assert abs(corr) > 1.0 - 1e-10


def test_fpca_recovers_variance_fractions():
    sample, _, xi = dgp.draw_sample(dgp.DgpConfig("IndDis", n=500, p=201, seed=20))
    full = FunctionalSample.from_values(sample.grid, xi @ _fourier5(sample.grid.points).T)
    _, explained = fpca_scores(full, (0.0, 1.0))
    target = np.asarray(dgp.DEFAULT_LAMBDA) / sum(dgp.DEFAULT_LAMBDA)
    assert np.abs(explained[:5] - target).max() < 0.02


def test_fpca_explained_sums_to_one():
    sample, _, _ = dgp.draw_sample(dgp.DgpConfig("DepCon", n=60, p=101, seed=21))
    _, explained = fpca_scores(sample, (0.0, 0.5))
    assert explained.sum() == pytest.approx(1.0)
    assert np.all(np.diff(explained) <= 1e-12)


def test_fpca_degenerate_sample():
    g = make_grid(51, 0.0, 1.0)
    s = FunctionalSample.from_values(g, np.tile(np.cos(g.points), (5, 1)))
    scores, explained = fpca_scores(s, (0.0, 1.0))
    assert scores.shape == (5, 0)
    assert explained.size == 0
