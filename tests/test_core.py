import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcfd.core import (
    FunctionalSample,
    Grid,
    fully_observed_prefix,
    make_grid,
    summarize_observation,
)
from ftcfd.dgp import DgpConfig, draw_sample
from ftcfd.errors import ArgumentError


def test_make_grid_default_resolution():
    g = make_grid(501, 0.0, 1.0)
    assert g.p == 501
    assert g.h == pytest.approx(0.002)
    assert g.points[0] == 0.0
    assert g.points[-1] == 1.0


def test_make_grid_minimal():
    g = make_grid(3, 0.0, 1.0)
    assert np.array_equal(g.points, [0.0, 0.5, 1.0])


def test_make_grid_scaled_domain():
    g = make_grid(501, 0.0, 2500.0)
    assert g.h == pytest.approx(5.0)
    assert g.points[1] == pytest.approx(5.0)


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ArgumentError):
        make_grid(2, 0.0, 1.0)
    with pytest.raises(ArgumentError):
        make_grid(10, 1.0, 1.0)
    with pytest.raises(ArgumentError):
        make_grid(10, 2.0, 1.0)


def test_grid_rejects_non_equidistant_points():
    with pytest.raises(ArgumentError):
        Grid(np.array([0.0, 0.1, 0.3, 1.0]))
    with pytest.raises(ArgumentError):
        Grid(np.array([0.0, 0.5, 0.5, 1.0]))
    # Spacings 1e-13 and 2e-13: uneven by half a step, on any scale.
    with pytest.raises(ArgumentError, match="equidistant"):
        Grid(np.array([0.0, 1e-13, 3e-13]))


@pytest.mark.parametrize(
    "offset, span",
    [(0.0, 1e-13), (0.0, 1e-11), (0.0, 1e-6), (0.0, 1e6), (1.0, 1e-3), (-1e6, 1.0),
     (1e9, 1e3)],
)
def test_grid_accepts_scaled_and_offset_linspace(offset, span):
    # As a CSV header carries them: each point round-tripped through %.17g.
    for p in (3, 101, 2001):
        pts = [float("%.17g" % t) for t in np.linspace(offset, offset + span, p)]
        assert Grid(np.array(pts)).p == p


def test_grid_rejects_non_finite_points():
    for pts in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [np.nan, np.nan, np.nan]):
        with pytest.raises(ArgumentError):
            Grid(np.array(pts))


def test_index_of_snaps_within_half_a_step():
    g = make_grid(11, 0.0, 1.0)
    assert g.index_of(0.34) == 3
    assert g.index_of(-0.05) == 0
    assert g.index_of(1.05) == 10


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -0.06, 1.06, 7.0])
def test_index_of_rejects_off_grid_points(t):
    with pytest.raises(ArgumentError):
        make_grid(11, 0.0, 1.0).index_of(t)


def test_sample_syncs_nan_with_mask():
    g = make_grid(3, 0.0, 1.0)
    values = np.array([[1.0, 2.0, 3.0]])
    mask = np.array([[True, True, False]])
    s = FunctionalSample(g, values, mask)
    assert np.isnan(s.values[0, 2])
    assert s.values[0, 1] == 2.0


def test_sample_rejects_nan_in_observed_cell():
    g = make_grid(3, 0.0, 1.0)
    with pytest.raises(ArgumentError, match=r"^observed cells must not be NaN$"):
        FunctionalSample(g, np.array([[1.0, np.nan, 3.0]]), np.ones((1, 3), bool))
    # NaN in a cell the mask leaves out is the missing marker, not an error.
    s = FunctionalSample(g, np.array([[1.0, np.nan, 3.0]]), np.array([[True, False, True]]))
    assert s.mask.sum() == 2


def test_sample_rejects_fully_missing_curve():
    g = make_grid(3, 0.0, 1.0)
    with pytest.raises(ArgumentError):
        FunctionalSample.from_values(g, np.array([[1.0, 2.0, 3.0], [np.nan] * 3]))


def test_sample_from_values_uses_nan_marker():
    g = make_grid(3, 0.0, 1.0)
    s = FunctionalSample.from_values(g, np.array([[1.0, np.nan, 3.0]]))
    assert np.array_equal(s.mask, [[True, False, True]])


def test_sample_arrays_are_immutable():
    g = make_grid(3, 0.0, 1.0)
    s = FunctionalSample.from_values(g, np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        s.values[0, 0] = 9.0
    with pytest.raises(ValueError):
        s.mask[0, 0] = False


def test_summarize_fully_observed():
    g = make_grid(4, 0.0, 1.0)
    s = FunctionalSample.from_values(g, np.arange(8.0).reshape(2, 4))
    summ = summarize_observation(s)
    assert np.array_equal(summ.first, [0, 0])
    assert np.array_equal(summ.last, [3, 3])
    assert np.array_equal(summ.counts, [4, 4])
    assert np.array_equal(summ.d_i, [1.0, 1.0])
    assert summ.d_i.min() == 1.0
    assert summ.interval_pattern


def test_summarize_hand_checked_two_curves():
    g = make_grid(3, 0.0, 1.0)
    s = FunctionalSample.from_values(
        g, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, np.nan]])
    )
    summ = summarize_observation(s)
    assert np.array_equal(summ.first, [0, 0])
    assert np.array_equal(summ.last, [2, 1])
    assert np.array_equal(summ.counts, [3, 2])
    assert np.array_equal(summ.d_i, [1.0, 0.5])
    assert summ.d_i.min() == 0.5
    assert summ.interval_pattern


def test_summarize_endpoint_fraction_matches_sign_rule():
    sample, d, xi = draw_sample(DgpConfig("DepDis", n=500, p=101, seed=4))
    summ = summarize_observation(sample)
    assert np.array_equal(summ.d_i, d)
    assert abs(np.mean(summ.d_i == 1.0) - 0.5) < 0.07


def test_summarize_is_pure_function_of_mask():
    g = make_grid(5, 0.0, 1.0)
    mask = np.array([[True, True, True, False, False]])
    a = FunctionalSample(g, np.ones((1, 5)), mask)
    b = FunctionalSample(g, np.full((1, 5), 7.5), mask)
    sa, sb = summarize_observation(a), summarize_observation(b)
    for field in ("first", "last", "counts", "d_i"):
        assert np.array_equal(getattr(sa, field), getattr(sb, field))
    # idempotent: calling twice gives the same summary
    sa2 = summarize_observation(a)
    assert np.array_equal(sa.counts, sa2.counts)


def test_summarize_non_interval_pattern():
    g = make_grid(4, 0.0, 1.0)
    s = FunctionalSample.from_values(g, np.array([[1.0, np.nan, 2.0, 3.0]]))
    summ = summarize_observation(s)
    assert not summ.interval_pattern
    with pytest.raises(ArgumentError, match="no fully observed subdomain"):
        fully_observed_prefix(summ)
    # The run 0..3 holds 3 points: it has a gap.
    assert (summ.first[0], summ.last[0], summ.counts[0]) == (0, 3, 3)


def test_interval_pattern_runs_are_prefixes():
    sample, _, _ = draw_sample(DgpConfig("IndCon", n=60, p=51, seed=2))
    summ = summarize_observation(sample)
    assert summ.interval_pattern
    assert np.array_equal(summ.first, np.zeros(60))
    assert np.array_equal(summ.counts, summ.last + 1)
    assert np.array_equal(summ.d_i, sample.grid.points[summ.last])


@settings(deadline=None, max_examples=100)
@given(
    lasts=st.lists(st.integers(1, 11), min_size=1, max_size=8),
    p=st.integers(12, 20),
)
def test_fully_observed_prefix_counts_the_leading_observed_columns(lasts, p):
    mask = np.arange(p) <= np.array(lasts)[:, None]
    sample = FunctionalSample(make_grid(p, 0.0, 1.0), np.zeros(mask.shape), mask)
    leading = int(np.argmin(np.append(mask.all(axis=0), False)))
    assert fully_observed_prefix(summarize_observation(sample)) == leading
