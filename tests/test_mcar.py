import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcfd import dgp, mcar
from ftcfd.basis import select_J
from ftcfd.core import FunctionalSample, Grid
from ftcfd.errors import ArgumentError, NumericalError
from ftcfd.estimators import fpca_scores
from ftcfd.harness import _rep_seed
from ftcfd.mcar import (
    OUTCOME_NULL,
    OUTCOME_OTHER,
    OUTCOME_V,
    bootstrap_statistics,
    classify_and_test,
    fit_regression,
    romano_wolf,
)
from reference import one_shot_bootstrap


def _design(n, J=5, seed=0):
    return np.random.default_rng(seed).standard_normal((n, J))


# --- fit_regression -------------------------------------------------------


def test_fit_constant_response():
    Xi = _design(100)
    fit = fit_regression(np.full(100, 0.7), Xi)
    assert np.abs(fit.beta_hat[1:]).max() < 1e-10
    assert np.abs(fit.t_sq).max() < 1e-10


def test_fit_noiseless_linear_response():
    Xi = _design(200)
    fit = fit_regression(2.0 * Xi[:, 0], Xi)
    assert fit.beta_hat[1] == pytest.approx(2.0)
    assert fit.se[1] == pytest.approx(0.0)
    assert fit.t_sq[0] > 1e6
    assert np.abs(fit.t_sq[1:]).max() < 1e-10


def test_fit_residuals_sum_to_zero():
    rng = np.random.default_rng(1)
    Xi = _design(300, seed=2)
    d = 0.2 + 0.1 * Xi[:, 2] + rng.normal(0, 0.3, 300)
    fit = fit_regression(d, Xi)
    assert abs(fit.residuals.sum()) < 1e-8
    X = np.column_stack([np.ones(300), Xi])
    assert np.array_equal(fit.residuals, d - X @ fit.beta_hat)


def test_fit_confidence_coverage():
    hits = 0
    for r in range(500):
        rng = np.random.default_rng((21, r))
        Xi = rng.standard_normal((500, 5))
        d = 0.5 + 0.3 * Xi[:, 0] + rng.normal(0, 0.1, 500)
        fit = fit_regression(d, Xi)
        hits += abs(fit.beta_hat[1] - 0.3) <= 3 * fit.se[1]
    assert hits / 500 >= 0.99


def test_fit_rejects_bad_shapes_and_rank():
    Xi = _design(10, J=5)
    with pytest.raises(ArgumentError):
        fit_regression(np.zeros(9), Xi)
    with pytest.raises(ArgumentError):
        fit_regression(np.zeros(6), Xi[:6])  # n <= J+1
    bad = np.column_stack([Xi[:, 0], Xi[:, 0], Xi[:, 1]])
    with pytest.raises(NumericalError):
        fit_regression(np.arange(10.0), bad)


# --- bootstrap_statistics --------------------------------------------------


def test_bootstrap_degenerate_noiseless_fit():
    Xi = _design(200)
    t2 = bootstrap_statistics(fit_regression(2.0 * Xi[:, 0], Xi), 200, seed=1)
    assert t2.shape == (200, 5)
    assert not t2.any()


def test_bootstrap_is_deterministic():
    rng = np.random.default_rng(3)
    Xi = _design(150, seed=4)
    d = 0.5 + rng.normal(0, 0.2, 150)
    fit = fit_regression(d, Xi)
    a = bootstrap_statistics(fit, 300, seed=9)
    b = bootstrap_statistics(fit, 300, seed=9)
    assert np.array_equal(a, b)
    c = bootstrap_statistics(fit, 300, seed=10)
    assert not np.array_equal(a, c)


def test_bootstrap_null_quantile_matches_chi_square():
    rng = np.random.default_rng(5)
    Xi = rng.standard_normal((500, 5))
    d = rng.standard_normal(500)
    t2 = bootstrap_statistics(fit_regression(d, Xi), 1000, seed=11)
    q95 = np.percentile(t2[:, 0], 95)
    assert 3.0 <= q95 <= 4.9


def test_bootstrap_requires_enough_replications():
    Xi = _design(100)
    with pytest.raises(ArgumentError):
        bootstrap_statistics(fit_regression(np.arange(100.0), Xi), 99, seed=0)


# --- the QR fit against the normal-equation formulas ------------------------


def _reference_fit(d, Xi):
    """lstsq estimates, inv(X^T X) standard errors and the fitted values."""
    n, J = Xi.shape
    X = np.column_stack([np.ones(n), Xi])
    beta, _, rank, _ = np.linalg.lstsq(X, d, rcond=None)
    fitted = X @ beta
    resid = d - fitted
    xtx_inv = np.linalg.inv(X.T @ X)
    se = np.sqrt(resid @ resid / (n - J - 1) * np.diag(xtx_inv))
    return X, beta, se, (beta[1:] / se[1:]) ** 2, fitted, resid, xtx_inv


def _reference_bootstrap(d, Xi, R, seed):
    """Refit d* = fitted + u* for every replication and form the t^2 array."""
    X, beta, _, _, fitted, resid, xtx_inv = _reference_fit(d, Xi)
    n, J = Xi.shape
    rng = np.random.default_rng(seed)
    d_star = fitted + rng.choice(resid, size=(R, n), replace=True)
    beta_star = d_star @ (xtx_inv @ X.T).T
    resid_star = d_star - beta_star @ X.T
    sigma2_star = np.einsum("ij,ij->i", resid_star, resid_star) / (n - J - 1)
    se_star = np.sqrt(sigma2_star[:, None] * np.diag(xtx_inv)[1:])
    return ((beta_star[:, 1:] - beta[1:]) / se_star) ** 2


def _assert_close(a, b):
    assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


@pytest.mark.parametrize("kind", ["DepDis", "DepCon", "IndDis", "IndCon"])
@pytest.mark.parametrize("n", [150, 500])
def test_fit_and_bootstrap_match_normal_equations_on_dgp_draws(kind, n):
    sample, _, _ = dgp.draw_sample(dgp.DgpConfig(kind, n=n, p=501, seed=(61, n)))
    _, Xi = select_J(sample, 51)
    d = sample.d_i
    _, beta, se, t_sq, _, _, _ = _reference_fit(d, Xi)
    fit = fit_regression(d, Xi)
    _assert_close(fit.beta_hat, beta)
    _assert_close(fit.se, se)
    _assert_close(fit.t_sq, t_sq)
    _assert_close(bootstrap_statistics(fit, 500, seed=4), _reference_bootstrap(d, Xi, 500, 4))


@functools.cache
def _dgp_fit(n):
    sample, _, _ = dgp.draw_sample(dgp.DgpConfig("DepDis", n=n, p=501, seed=(63, n)))
    _, Xi = select_J(sample, 51)
    return fit_regression(sample.d_i, Xi)


# R = 100 is the smallest bootstrap allowed; 101 and 250 end in a short block.
@pytest.mark.parametrize("n", [151, 500])
@pytest.mark.parametrize("R", [100, 101, 250, 1000])
def test_blocked_bootstrap_matches_one_shot_draw(n, R):
    fit = _dgp_fit(n)
    _assert_close(bootstrap_statistics(fit, R, seed=5), one_shot_bootstrap(fit, R, 5))


@settings(deadline=None, max_examples=30)
@given(R_short=st.integers(100, 450), extra=st.integers(0, 250))
def test_bootstrap_rows_do_not_depend_on_later_rows(R_short, extra):
    fit = _dgp_fit(150)
    full = bootstrap_statistics(fit, R_short + extra, seed=6)
    _assert_close(full[:R_short], bootstrap_statistics(fit, R_short, seed=6))


def test_fit_rank_deficiency_reports_the_lstsq_rank():
    rng = np.random.default_rng(62)
    Xi = rng.standard_normal((200, 6))
    Xi[:, 4] = Xi[:, 1]
    d = rng.standard_normal(200)
    rank = np.linalg.lstsq(np.column_stack([np.ones(200), Xi]), d, rcond=None)[2]
    assert rank == 6
    text = f"rank-deficient regression design (rank {rank})"
    with pytest.raises(NumericalError, match=re.escape(text) + "$"):
        fit_regression(d, Xi)


# --- romano_wolf ------------------------------------------------------------


def test_stepdown_all_zero_statistics():
    Xi = _design(100)
    report = romano_wolf(np.full(100, 0.7), Xi, 0.05, 500, seed=0)
    assert report.outcome == OUTCOME_NULL
    assert report.rejected == frozenset()
    assert report.p_values[0] == 1.0


def test_stepdown_detects_level_dependence():
    hits = 0
    reps = 100
    for r in range(reps):
        rng = np.random.default_rng((51, r))
        Xi = rng.standard_normal((150, 5))
        d = 0.5 + 0.3 * Xi[:, 0] + rng.normal(0, 0.1, 150)
        hits += romano_wolf(d, Xi, 0.05, 1000, _rep_seed(51, r)).outcome == OUTCOME_V
    assert hits / reps >= 0.95


def test_stepdown_keeps_null_under_independence():
    hits = 0
    reps = 100
    for r in range(reps):
        rng = np.random.default_rng((151, r))
        Xi = rng.standard_normal((150, 5))
        d = 0.5 + rng.normal(0, 0.1, 150)
        hits += romano_wolf(d, Xi, 0.05, 1000, _rep_seed(151, r)).outcome == OUTCOME_NULL
    assert hits / reps >= 0.94


def test_stepdown_rejection_p_values_bracket_alpha():
    rng = np.random.default_rng(6)
    Xi = rng.standard_normal((200, 5))
    d = 0.5 + 0.3 * Xi[:, 0] + rng.normal(0, 0.1, 200)
    report = romano_wolf(d, Xi, 0.05, 1000, seed=12)
    assert report.rejected == frozenset({1})
    assert all(p <= 0.05 for p in report.p_values[:-1])
    assert report.p_values[-1] > 0.05


def test_stepdown_label_permutation_equivariance():
    rng = np.random.default_rng(7)
    Xi = rng.standard_normal((200, 5))
    d = 0.5 + 0.4 * Xi[:, 2] + rng.normal(0, 0.1, 200)
    base = romano_wolf(d, Xi, 0.05, 1000, seed=13)
    perm = [2, 0, 1, 4, 3]  # column j of the new design = old column perm[j]
    permuted = romano_wolf(d, Xi[:, perm], 0.05, 1000, seed=13)
    relabeled = frozenset(perm.index(j - 1) + 1 for j in base.rejected)
    assert permuted.rejected == relabeled


def test_stepdown_scale_invariance():
    rng = np.random.default_rng(8)
    Xi = rng.standard_normal((200, 5))
    d = 0.5 + 0.3 * Xi[:, 0] + rng.normal(0, 0.1, 200)
    scaled = Xi.copy()
    scaled[:, 0] *= -250.0
    scaled[:, 3] *= 1e-3
    a = romano_wolf(d, Xi, 0.05, 1000, seed=14)
    b = romano_wolf(d, scaled, 0.05, 1000, seed=14)
    assert a.rejected == b.rejected
    assert a.outcome == b.outcome
    assert np.allclose(a.p_values, b.p_values)


def test_stepdown_deterministic_report():
    rng = np.random.default_rng(9)
    Xi = rng.standard_normal((120, 5))
    d = 0.5 + rng.normal(0, 0.2, 120)
    a = romano_wolf(d, Xi, 0.05, 500, seed=15)
    b = romano_wolf(d, Xi, 0.05, 500, seed=15)
    assert a == b


def test_stepdown_validates_alpha():
    Xi = _design(100)
    with pytest.raises(ArgumentError):
        romano_wolf(np.arange(100.0), Xi, 1.5, 500, seed=0)


# --- classify_and_test -------------------------------------------------------


def _classify(kind, n, J_max, base, reps):
    counts = {OUTCOME_NULL: 0, OUTCOME_V: 0, OUTCOME_OTHER: 0}
    for r in range(reps):
        sample, _, _ = dgp.draw_sample(dgp.DgpConfig(kind, n=n, p=501, seed=(base, r)))
        outcome = classify_and_test(
            sample, J_max=J_max, R=1000, seed=_rep_seed(base, r)
        ).outcome
        counts[outcome] += 1
    return counts


def test_classify_detects_level_violation_at_n250():
    counts = _classify("DepDis", 250, 51, 71, 30)
    assert counts[OUTCOME_V] / 30 >= 0.93


def test_classify_small_n_with_reduced_j_max():
    counts = _classify("DepDis", 50, 31, 72, 30)
    assert counts[OUTCOME_V] / 30 >= 0.90


def test_classify_null_under_independent_continuous_design():
    counts = _classify("IndCon", 500, 51, 73, 50)
    assert counts[OUTCOME_NULL] / 50 >= 0.92


def test_classify_family_wise_error_under_independence():
    counts = _classify("IndDis", 500, 51, 74, 200)
    rejections = counts[OUTCOME_V] + counts[OUTCOME_OTHER]
    assert rejections / 200 <= 0.07


def _fully_observed_sample():
    sample, _, xi = dgp.draw_sample(dgp.DgpConfig("IndDis", n=30, p=101, seed=30))
    from ftcfd.basis import BasisSpec, eval_basis

    return FunctionalSample(
        sample.grid, xi @ eval_basis(BasisSpec(5, (0.0, 1.0)), sample.grid.points).T
    )


def test_classify_fully_observed_sample_is_degenerate_null():
    report = classify_and_test(_fully_observed_sample(), R=200, seed=0)
    assert report.outcome == OUTCOME_NULL
    assert report.degenerate_response


@pytest.mark.parametrize(
    "options, text",
    [
        (dict(J_max=4, alpha=7.0, R=3), "J_max must be odd and >= 3, got 4"),
        (dict(alpha=7.0, R=3), "alpha must be in (0, 1), got 7.0"),
        (dict(R=3), "R must be >= 100, got 3"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
    ],
    ids=["J_max", "alpha", "R", "seed"],
)
def test_classify_checks_options_before_the_degenerate_short_cut(options, text):
    with pytest.raises(ArgumentError) as exc:
        classify_and_test(_fully_observed_sample(), **options)
    assert str(exc.value) == text


def test_classify_fits_the_regression_once(monkeypatch):
    calls = []
    fit = mcar.fit_regression

    def counted(d, Xi):
        calls.append(Xi.shape)
        return fit(d, Xi)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called on the test path")

    monkeypatch.setattr(mcar, "fit_regression", counted)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    sample, _, _ = dgp.draw_sample(dgp.DgpConfig("DepDis", n=150, p=201, seed=32))
    report = classify_and_test(sample, R=200, seed=0)
    assert len(calls) == 1
    assert calls[0] == (150, report.J)


def test_classify_rejects_non_interval_pattern():
    from ftcfd.core import make_grid

    g = make_grid(5, 0.0, 1.0)
    s = FunctionalSample(g, np.array([[np.nan, 1.0, 2.0, 3.0, 4.0]]))
    with pytest.raises(ArgumentError):
        classify_and_test(s, R=200, seed=0)


@pytest.mark.parametrize("kind", ["DepDis", "IndCon", "DepCon"])
@pytest.mark.parametrize(
    "move", [(1e3, 0.0), (1e-6, 0.0), (1e-11, 0.0), (1e-12, 0.0), (1.0, 1e6)],
    ids=["x1e3", "x1e-6", "x1e-11", "x1e-12", "+1e6"],
)
def test_prefix_results_do_not_depend_on_the_grid_unit(kind, move):
    # The endpoints d_i are grid points, so the regression response moves too.
    sample, _, _ = dgp.draw_sample(dgp.DgpConfig(kind, n=60, p=101, seed=1))
    scale, shift = move
    moved = FunctionalSample(Grid(sample.grid.points * scale + shift), sample.values)
    a, b = classify_and_test(sample), classify_and_test(moved)
    assert (b.outcome, b.J, b.p_values) == (a.outcome, a.J, a.p_values)
    _, explained = fpca_scores(sample)
    _, explained_moved = fpca_scores(moved)
    assert explained_moved.size == explained.size
    assert np.allclose(explained_moved, explained, rtol=1e-9, atol=0.0)


def test_report_serialization_round_trip_keys():
    sample, _, _ = dgp.draw_sample(dgp.DgpConfig("DepDis", n=100, p=101, seed=31))
    report = classify_and_test(sample, R=200, seed=5)
    text = report.serialize()
    fields = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert fields["outcome"] == report.outcome
    assert fields["R"] == "200"
    assert fields["seed"] == "5"
    assert fields["degenerate_response"] == "false"
