import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcfd import dgp
from ftcfd.basis import eval_basis, select_J
from ftcfd.core import FunctionalSample
from ftcfd.errors import ArgumentError


def test_draw_sample_validation():
    for kind in dgp.ALL_KINDS:
        assert dgp.draw_sample(kind, n=10)[0].values.shape == (10, 501)
    with pytest.raises(ArgumentError):
        dgp.draw_sample("Nope", n=10)
    with pytest.raises(ArgumentError, match="n must be >= 1, got 0"):
        dgp.draw_sample("DepDis", n=0)
    with pytest.raises(ArgumentError, match="p must be >= 3, got 2"):
        dgp.draw_sample("DepDis", n=10, p=2)
    with pytest.raises(ArgumentError, match="seed must be >= 0, got -1"):
        dgp.draw_sample("DepDis", n=10, seed=-1)
    with pytest.raises(ArgumentError, match=r"seed must be >= 0, got \(3, -1\)"):
        dgp.draw_sample("DepDis", n=10, seed=(3, -1))
    # The checks run in the order kind, n, p, seed.
    with pytest.raises(ArgumentError, match="unknown kind 'Nope'"):
        dgp.draw_sample("Nope", n=0, p=2, seed=-1)
    with pytest.raises(ArgumentError, match="n must be >= 1"):
        dgp.draw_sample("DepDis", n=0, p=2, seed=-1)
    with pytest.raises(ArgumentError, match="p must be >= 3"):
        dgp.draw_sample("DepDis", n=10, p=2, seed=-1)


def test_draw_is_deterministic():
    a = dgp.draw_sample("DepCon", n=20, p=51, seed=7)
    b = dgp.draw_sample("DepCon", n=20, p=51, seed=7)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])
    assert np.array_equal(a[0].mask, b[0].mask)
    assert np.array_equal(a[0].values, b[0].values, equal_nan=True)


def test_kinds_share_coefficients_given_seed():
    xis = [dgp.draw_sample(kind, n=15, p=51, seed=3)[2] for kind in dgp.ALL_KINDS]
    for xi in xis[1:]:
        assert np.array_equal(xis[0], xi)


def test_dep_dis_endpoint_balance():
    _, d, xi = dgp.draw_sample("DepDis", n=40_000, p=11, seed=2)
    assert set(np.unique(d)) == {0.5, 1.0}
    assert abs(np.mean(d == 1.0) - 0.5) < 0.015
    # sign rule: d = 1 exactly when the level coefficient is above its mean
    assert np.array_equal(d == 1.0, xi[:, 0] >= 5.0)


def test_dep_con_point_masses():
    n = 10_000
    _, d, _ = dgp.draw_sample("DepCon", n=n, p=11, seed=2)
    assert np.sum(d == 1.0) == math.ceil(0.02 * n)
    assert abs(np.mean(d == 0.5) - 0.5) < 0.02
    assert np.all((d >= 0.5) & (d <= 1.0))


def test_dep_con_exact_mass_small_n():
    for n in (49, 50, 51, 150):
        _, d, _ = dgp.draw_sample("DepCon", n=n, p=11, seed=3)
        assert np.sum(d == 1.0) == math.ceil(0.02 * n)


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
def test_dep_con_endpoints_follow_the_level_coefficient(n, seed):
    # d is the normal CDF of the standardised xi_1, floored at 0.5, with its
    # top ceil(0.02 n) values moved to 1: monotone in xi_1, whatever CDF code.
    _, d, xi = dgp.draw_sample("DepCon", n=n, p=11, seed=seed)
    xi1 = xi[:, 0]
    order = np.argsort(xi1)
    assert np.all(np.diff(d[order]) >= 0.0)
    k = math.ceil(0.02 * n)
    top = np.zeros(n, dtype=bool)
    top[order[n - k :]] = True
    assert np.array_equal(d == 1.0, top)
    below = xi1 < dgp.DEFAULT_MU[0]
    assert np.all(d[~top & below] == 0.5)
    rest = d[~top & ~below]
    assert np.all((rest >= 0.5) & (rest < 1.0))


def test_lower_half_always_observed():
    for kind in dgp.ALL_KINDS:
        sample, _, _ = dgp.draw_sample(kind, n=50, p=101, seed=4)
        half = sample.grid.points <= 0.5
        assert sample.mask[:, half].all()


def test_endpoint_coefficient_correlations():
    n = 10_000
    for kind in ("DepDis", "DepCon"):
        _, d, xi = dgp.draw_sample(kind, n=n, p=11, seed=5)
        assert np.corrcoef(d, xi[:, 0])[0, 1] > 0.5
    for kind in ("IndDis", "IndCon"):
        _, d, xi = dgp.draw_sample(kind, n=n, p=11, seed=5)
        for j in range(5):
            assert abs(np.corrcoef(d, xi[:, j])[0, 1]) < 0.05


def test_coefficient_moments():
    _, _, xi = dgp.draw_sample("IndDis", n=10_000, p=11, seed=6)
    assert np.abs(xi.mean(axis=0) - dgp.DEFAULT_MU).max() < 0.1
    assert np.abs(xi.var(axis=0) - dgp.DEFAULT_LAMBDA).max() < 0.5


def test_rendered_curves_project_back_to_coefficients():
    sample, _, xi = dgp.draw_sample("IndDis", n=20, p=201, seed=7)
    full = FunctionalSample(
        sample.grid, xi @ eval_basis(5, (0.0, 1.0), sample.grid.points).T
    )
    coef = select_J(full, 11)[1]
    assert np.abs(coef - xi).max() < 1e-6


def test_true_mean_values():
    assert dgp.true_mean(0.0) == pytest.approx(5.0)
    assert dgp.true_mean(0.25) == pytest.approx(5.0 + 2.0 * math.sqrt(2.0))
    for kind in dgp.KINDS:
        assert dgp.true_mean(0.25, kind=kind) == dgp.true_mean(0.25)


def test_true_cov_values():
    assert dgp.true_cov(0.0, 0.0) == pytest.approx(26.0)
    t = 0.15
    expected = (
        10.0
        + 16.0 * math.sin(2 * math.pi * t) ** 2
        + 12.0 * math.cos(2 * math.pi * t) ** 2
        + 8.0 * math.sin(4 * math.pi * t) ** 2
        + 4.0 * math.cos(4 * math.pi * t) ** 2
    )
    assert dgp.true_cov(t, t) == pytest.approx(expected)
    for kind in dgp.KINDS:
        assert dgp.true_cov(t, t, kind=kind) == dgp.true_cov(t, t)


def test_true_cov_matches_sample_moments():
    # t = 0.1 and 0.4 lie in the half every curve observes
    idx = [1, 4]
    for kind in ("IndDis", "V2"):
        sample, _, _ = dgp.draw_sample(kind, n=200_00, p=11, seed=8)
        pts = sample.grid.points[idx]
        emp = np.cov(sample.values[:, idx].T, bias=True)
        assert np.abs(emp - dgp.true_cov(pts, pts, kind=kind)).max() < 0.8


def test_analytic_bias_values():
    assert dgp.analytic_bias_dep_dis(0.3) == 0.0
    assert dgp.analytic_bias_dep_dis(0.75) == pytest.approx(math.sqrt(20.0 / math.pi))


def test_analytic_bias_brute_force_oracle():
    rng = np.random.default_rng(9)
    xi1 = 5.0 + math.sqrt(10.0) * rng.standard_normal(1_000_000)
    observed_mean = xi1[xi1 > 5.0].mean()
    assert abs((observed_mean - 5.0) - dgp.analytic_bias_dep_dis(0.75)) < 0.01


def test_analytic_bias_integrates_to_table_value():
    t = np.linspace(0.0, 1.0, 100_001)
    integral = np.trapezoid(dgp.analytic_bias_dep_dis(t) ** 2, t)
    assert integral == pytest.approx(10.0 / math.pi, rel=1e-3)


# --- V2: endpoint tied to two monomial components ---------------------------


def test_v2_sample_shape_and_endpoints():
    sample, d, xi = dgp.draw_sample("V2", n=100, p=51, seed=10)
    assert sample.values.shape == (100, 51)
    assert set(np.unique(d)) == {0.5, 1.0}
    centered = (xi[:, 0] - 5.0) + (xi[:, 1] - 2.0)
    assert np.array_equal(d == 1.0, centered >= 0.0)


def test_v2_truth_functions():
    assert dgp.true_mean(0.0, kind="V2") == pytest.approx(5.0)
    # variance at t: lam1 + lam2 t^2 + Fourier terms
    t = 0.25
    basis = np.array(
        [
            1.0,
            t,
            math.sqrt(2) * math.sin(2 * math.pi * t),
            math.sqrt(2) * math.cos(2 * math.pi * t),
            math.sqrt(2) * math.sin(4 * math.pi * t),
        ]
    )
    expected = float(np.sum(np.asarray(dgp.DEFAULT_LAMBDA) * basis**2))
    assert dgp.true_cov(t, t, kind="V2") == pytest.approx(expected)


@pytest.mark.parametrize("kind", ["Nope", "v2", "depdis"])
def test_truth_rejects_unknown_kinds(kind):
    # A misspelt kind must not fall back to the paper's truth.
    with pytest.raises(ArgumentError):
        dgp.true_mean(0.25, kind=kind)
    with pytest.raises(ArgumentError):
        dgp.true_cov(0.25, 0.25, kind=kind)


def test_v2_curves_match_coefficients():
    sample, _, xi = dgp.draw_sample("V2", n=10, p=21, seed=11)
    # at t = 0 the basis row is (1, 0, 0, sqrt(2), 0)
    assert np.allclose(sample.values[:, 0], xi[:, 0] + math.sqrt(2) * xi[:, 3])
