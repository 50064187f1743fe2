import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftcfd.core import (
    FunctionalSample,
    Grid,
    fully_observed_block,
    make_grid,
    subdomain,
)
from ftcfd.dgp import draw_sample
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


def test_sample_rejects_fully_missing_curve():
    g = make_grid(3, 0.0, 1.0)
    with pytest.raises(ArgumentError):
        FunctionalSample(g, np.array([[1.0, 2.0, 3.0], [np.nan] * 3]))


def test_sample_rejects_values_off_the_grid():
    g = make_grid(3, 0.0, 1.0)
    for values in (np.ones(3), np.ones((2, 4)), np.ones((1, 3, 1))):
        with pytest.raises(ArgumentError, match="n x p matrix"):
            FunctionalSample(g, values)


def test_sample_mask_marks_the_non_nan_cells():
    g = make_grid(3, 0.0, 1.0)
    s = FunctionalSample(g, np.array([[1.0, np.nan, 3.0]]))
    assert np.array_equal(s.mask, [[True, False, True]])


def test_sample_arrays_are_immutable():
    g = make_grid(3, 0.0, 1.0)
    s = FunctionalSample(g, np.array([[1.0, 2.0, 3.0]]))
    for name in ("values", "mask", "first", "last", "counts"):
        with pytest.raises(ValueError):
            getattr(s, name)[0] = 0


def test_sample_leaves_the_callers_values_writable():
    # The sample freezes its own copy, never the caller's array.
    g = make_grid(3, 0.0, 1.0)
    values = np.array([[1.0, 2.0, np.nan]])
    s = FunctionalSample(g, values)
    assert values.flags.writeable
    values[0, 0] = 9.0
    assert s.values[0, 0] == 1.0


def test_summarize_fully_observed():
    g = make_grid(4, 0.0, 1.0)
    s = FunctionalSample(g, np.arange(8.0).reshape(2, 4))
    assert np.array_equal(s.first, [0, 0])
    assert np.array_equal(s.last, [3, 3])
    assert np.array_equal(s.counts, [4, 4])
    assert np.array_equal(s.grid.points[s.last], [1.0, 1.0])
    assert s.grid.points[s.last].min() == 1.0
    assert fully_observed_block(s) == (0, 3)


def test_summarize_hand_checked_two_curves():
    g = make_grid(3, 0.0, 1.0)
    s = FunctionalSample(g, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, np.nan]]))
    assert np.array_equal(s.first, [0, 0])
    assert np.array_equal(s.last, [2, 1])
    assert np.array_equal(s.counts, [3, 2])
    assert np.array_equal(s.grid.points[s.last], [1.0, 0.5])
    assert s.grid.points[s.last].min() == 0.5
    assert fully_observed_block(s) == (0, 1)


def test_summarize_endpoint_fraction_matches_sign_rule():
    sample, d, xi = draw_sample("DepDis", n=500, p=101, seed=4)
    assert np.array_equal(sample.grid.points[sample.last], d)
    assert abs(np.mean(d == 1.0) - 0.5) < 0.07


def test_summarize_is_pure_function_of_mask():
    g = make_grid(5, 0.0, 1.0)
    missing = np.array([[False, False, False, True, True]])
    a = FunctionalSample(g, np.where(missing, np.nan, 1.0))
    b = FunctionalSample(g, np.where(missing, np.nan, 7.5))
    for field in ("first", "last", "counts"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_summarize_non_interval_pattern():
    g = make_grid(4, 0.0, 1.0)
    s = FunctionalSample(g, np.array([[1.0, np.nan, 2.0, 3.0]]))
    with pytest.raises(ArgumentError, match=r"must be contiguous \(curve 1\)$"):
        subdomain(s)
    # The run 0..3 holds 3 points: it has a gap.
    assert (s.first[0], s.last[0], s.counts[0]) == (0, 3, 3)


def _runs_sample(runs, p):
    """Curves observed on the inclusive grid-index runs (first, last)."""
    first, last = np.array(runs).T[:, :, None]
    idx = np.arange(p)
    mask = (idx >= first) & (idx <= last)
    return FunctionalSample(make_grid(p, 0.0, 1.0), np.where(mask, 1.0, np.nan))


@pytest.mark.parametrize(
    "runs, p, block",
    [
        # No curve needs to start at t_1.
        (10 * [(3, 40), (0, 34)], 41, (3, 34)),
        ([(0, 4), (4, 9)], 10, (4, 4)),
    ],
    ids=["non_interval", "one_column"],
)
def test_fully_observed_block_is_the_common_part_of_the_runs(runs, p, block):
    assert fully_observed_block(_runs_sample(runs, p)) == block


def test_interval_pattern_runs_are_prefixes():
    sample, _, _ = draw_sample("IndCon", n=60, p=51, seed=2)
    assert np.array_equal(sample.first, np.zeros(60))
    assert np.array_equal(sample.counts, sample.last + 1)


@settings(deadline=None, max_examples=100)
@given(
    lasts=st.lists(st.integers(1, 11), min_size=1, max_size=8),
    p=st.integers(12, 20),
    mirrored=st.booleans(),
)
@example(lasts=[11], p=12, mirrored=True)
def test_subdomain_is_the_run_of_columns_every_curve_observes(lasts, p, mirrored):
    # Curves that all start at t_1, or mirrored, all end at t_p. Fully
    # observed curves do both, and their endpoint is their last observed point.
    mask = np.arange(p) <= np.array(lasts)[:, None]
    values = np.where(mask, 0.0, np.nan)
    sample = FunctionalSample(make_grid(p, 0.0, 1.0), values[:, ::-1] if mirrored else values)
    leading = int(np.argmin(np.append(mask.all(axis=0), False)))
    cols, endpoint = subdomain(sample)
    if mirrored and leading < p:
        assert cols == slice(p - leading, p)
        assert np.array_equal(endpoint, sample.grid.points[p - 1 - np.array(lasts)])
    else:
        assert cols == slice(0, leading)
        assert np.array_equal(endpoint, sample.grid.points[sample.last])
    assert fully_observed_block(sample) == (cols.start, cols.stop - 1)


@pytest.mark.parametrize(
    "runs, p",
    [([(0, 5), (1, 6)], 7), ([(1, 5), (1, 6)], 7), ([(0, 6), (0, 0)], 7)],
    ids=["starts_and_ends_vary", "block_touches_neither_end", "one_column_from_t_1"],
)
def test_subdomain_refuses_blocks_off_both_ends_or_of_one_column(runs, p):
    with pytest.raises(ArgumentError, match="^no fully observed subdomain"):
        subdomain(_runs_sample(runs, p))
