import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftcfd
from ftcfd.core import FunctionalSample, make_grid
from ftcfd.dgp import draw_sample
from ftcfd.errors import ParseError
from ftcfd.harness import (
    MODE_BIAS_VARIANCE,
    MODE_TEST_SELECTION,
    BiasVarianceCell,
    ExperimentSpec,
    SelectionCell,
)
from ftcfd.io import (
    _joined_rows,
    parse_sample_csv,
    read_sample_csv,
    write_coefficient_sidecar,
    write_experiment_csv,
    write_matrix_csv,
    write_sample_csv,
    write_scores_csv,
    write_vector_csv,
)


def test_round_trip_is_bit_exact(tmp_path):
    sample, _, _ = draw_sample("DepCon", n=25, p=41, seed=8)
    path = tmp_path / "sample.csv"
    write_sample_csv(sample, path)
    back = read_sample_csv(path)
    assert np.array_equal(back.grid.points, sample.grid.points)
    assert np.array_equal(back.mask, sample.mask)
    assert np.array_equal(
        np.nan_to_num(back.values, nan=-1.25e308),
        np.nan_to_num(sample.values, nan=-1.25e308),
    )


def test_read_ignores_a_utf8_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start the file with a byte-order mark.
    sample, _, _ = draw_sample("DepCon", n=25, p=41, seed=8)
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_sample_csv(sample, plain)
    assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = read_sample_csv(plain), read_sample_csv(marked)
    assert np.array_equal(b.grid.points, a.grid.points)
    assert np.array_equal(b.values, a.values, equal_nan=True)


def test_round_trip_extreme_values(tmp_path):
    g = make_grid(3, 0.0, 1.0)
    vals = np.array([[1e-300, -1.2345678901234567e17, np.nan]])
    s = FunctionalSample(g, vals)
    path = tmp_path / "s.csv"
    write_sample_csv(s, path)
    back = read_sample_csv(path)
    assert back.values[0, 0] == vals[0, 0]
    assert back.values[0, 1] == vals[0, 1]
    assert np.isnan(back.values[0, 2])


def test_parse_empty_input():
    with pytest.raises(ParseError):
        parse_sample_csv("")


def test_parse_bad_header_reports_line_one():
    with pytest.raises(ParseError) as err:
        parse_sample_csv("x,0,0.5,1\ncurve_1,1,2,3\n")
    assert err.value.line == 1


def test_parse_wrong_field_count_reports_line():
    with pytest.raises(ParseError) as err:
        parse_sample_csv("t,0,0.5,1\ncurve_1,1,2\n")
    assert err.value.line == 2


def test_parse_bad_number_reports_line():
    with pytest.raises(ParseError) as err:
        parse_sample_csv("t,0,0.5,1\ncurve_1,1,2,3\ncurve_2,1,oops,3\n")
    assert err.value.line == 3


def test_parse_counts_blank_lines_in_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_sample_csv("t,0,0.5,1\n\ncurve_1,1,2,3\ncurve_2,1,x,3\n")
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_sample_csv("\nx,0,0.5,1\ncurve_1,1,2,3\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_sample_csv("t,0,0.5,1\ncurve_1,1,2,3\n\n\ncurve_2,1,inf,3\n")
    assert err.value.line == 5


def test_parse_names_the_source_line_of_a_curve_the_sample_rejects():
    # The blank line makes the curve's source line (4) differ from its row (2).
    with pytest.raises(ParseError) as err:
        parse_sample_csv("t,0,0.5,1\ncurve_1,1,2,3\n\ncurve_2,,,\n")
    assert err.value.line == 4
    assert str(err.value) == "line 4: every curve needs at least one observed point (curve 2)"


def test_parse_missing_cells_become_mask():
    s = parse_sample_csv("t,0,0.5,1\ncurve_1,1,,3\n")
    assert np.array_equal(s.mask, [[True, False, True]])


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param(f"t,0,0.5,1\ncurve_1,1,,3\ncurve_2,1,{cell},3\n", 3, id=cell)
        for cell in ["inf", "-inf", "nan", "NaN"]
    ]
    + [
        pytest.param(f"{header}\ncurve_1,1,2,3\n", 1, id=header)
        for header in ["t,0,nan,1", "t,0,1,inf", "t,nan,nan,nan"]
    ],
)
def test_parse_rejects_non_finite_observed_cell(text, line):
    with pytest.raises(ParseError) as err:
        parse_sample_csv(text)
    assert err.value.line == line


def test_parse_rejects_header_only():
    with pytest.raises(ParseError):
        parse_sample_csv("t,0,0.5,1\n")


def test_coefficient_sidecar_format(tmp_path):
    d = np.array([0.5, 1.0])
    xi = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "side.csv"
    write_coefficient_sidecar(path, d, xi)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,d_i,xi_1,xi_2"
    assert lines[1].startswith("1,0.5,1,2")


def test_vector_and_matrix_csv(tmp_path):
    g = make_grid(3, 0.0, 1.0)
    vpath = tmp_path / "v.csv"
    write_vector_csv(vpath, g, np.array([1.0, np.nan, 3.0]))
    lines = vpath.read_text().strip().splitlines()
    assert lines[0] == "t,mean"
    assert lines[2] == "0.5,"  # undefined cell is empty
    mpath = tmp_path / "m.csv"
    write_matrix_csv(mpath, g, np.eye(3))
    lines = mpath.read_text().strip().splitlines()
    assert lines[0].startswith("s,0,0.5,1")
    assert len(lines) == 4


# One cell of each kind the format must pin: a NaN, a value %.17g writes with
# 17 digits, a negative zero, a tiny value and a large one.
_NAN, _TENTH, _NEG0, _TINY, _BIG = np.nan, 0.1, -0.0, 1e-300, 1.2345678901234567e17
# The five cells in that order, as written: the NaN is the empty first cell.
_ROW = ",0.10000000000000001,-0,1e-300,1.2345678901234566e+17"


def _written(tmp_path, write):
    path = tmp_path / "table.csv"
    write(path)
    return path.read_bytes()


def test_table_bytes_are_pinned(tmp_path):
    g = make_grid(5, 0.0, 1.0)
    row = np.array([_NAN, _TENTH, _NEG0, _TINY, _BIG])
    grid_cells = "0,0.25,0.5,0.75,1"

    sample = FunctionalSample(g, np.vstack([row, np.roll(row, -1)]))
    assert _written(tmp_path, lambda p: write_sample_csv(sample, p)) == (
        f"t,{grid_cells}\r\n"
        f"curve_1,{_ROW}\r\n"
        "curve_2,0.10000000000000001,-0,1e-300,1.2345678901234566e+17,\r\n"
    ).encode()

    d = np.array([0.25])
    sidecar = _written(tmp_path, lambda p: write_coefficient_sidecar(p, d, row[None, :]))
    assert sidecar == f"i,d_i,xi_1,xi_2,xi_3,xi_4,xi_5\r\n1,0.25,{_ROW}\r\n".encode()

    assert _written(tmp_path, lambda p: write_vector_csv(p, g, row)) == (
        "t,mean\r\n0,\r\n0.25,0.10000000000000001\r\n0.5,-0\r\n"
        "0.75,1e-300\r\n1,1.2345678901234566e+17\r\n"
    ).encode()

    matrix = _written(tmp_path, lambda p: write_matrix_csv(p, g, np.vstack([row] * 5)))
    assert matrix == (
        f"s,{grid_cells}\r\n"
        + "".join(f"{t},{_ROW}\r\n" for t in grid_cells.split(","))
    ).encode()

    explained = np.array([0.1, 0.9])
    scores = _written(tmp_path, lambda p: write_scores_csv(p, row[None, 1:], explained))
    assert scores == (
        "# explained=0.10000000000000001,0.90000000000000002\n"
        "i,score_1,score_2,score_3,score_4\r\n"
        "1,0.10000000000000001,-0,1e-300,1.2345678901234566e+17\r\n"
    ).encode()


def _cell(v):
    return "" if v != v else "%.17g" % v


# Bit patterns the distinct-value writer must keep apart or write alike: both
# zeros, the smallest subnormal and a larger negative one, both infinities,
# and quiet, signalling and negative NaNs with different payloads.
_SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0x7FF8000000000001,
    0x7FF0000000000001, 0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF,
]


@st.composite
def _matrices(draw):
    """A small float64 matrix drawn from a few bit patterns, so cells repeat."""
    bits = st.sampled_from(_SPECIAL_BITS) | st.integers(0, 2**64 - 1) | st.floats().map(
        lambda v: int(np.float64(v).view(np.uint64))
    )
    pool = np.array(draw(st.lists(bits, min_size=1, max_size=6)), dtype=np.uint64)
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    picks = draw(st.lists(st.integers(0, pool.size - 1), min_size=rows * cols,
                          max_size=rows * cols))
    m = pool[picks].reshape(rows, cols).view(np.float64)
    if rows == cols and draw(st.booleans()):
        m = np.where(np.tri(rows, dtype=bool), m, m.T)  # bitwise symmetric
    if draw(st.booleans()):
        m = m.T  # not C-contiguous, as a back-transform covariance may arrive
    return m


@settings(deadline=None, max_examples=200)
@given(m=_matrices())
def test_matrix_rows_match_cell_by_cell_formatting(m):
    assert list(_joined_rows(m)) == [",".join(map(_cell, row)) for row in m.tolist()]


def _metadata(mode):
    return (
        f"# mode={mode}\n# kinds=DepDis\n# n=5\n# replications=2\n# p=3\n"
        "# J_max=51\n# alpha=0.1\n# R=1000\n# seed=0\n# targets=mean\n"
    ).encode()


def test_experiment_table_bytes_are_pinned(tmp_path):
    spec = dict(kinds=("DepDis",), n=(5,), replications=2, p=3, alpha=0.1,
                targets=("mean",))
    bv_spec = ExperimentSpec(mode=MODE_BIAS_VARIANCE, **spec)
    bv = (
        BiasVarianceCell("DepDis", 5, "classical", "mean", _TENTH, _NEG0, _TINY),
        BiasVarianceCell("DepDis", 5, "ftc", "mean", _NAN, _BIG, 0.5, True),
    )
    assert _written(tmp_path, lambda p: write_experiment_csv(bv_spec, bv, p)) == _metadata(
        "bias_variance"
    ) + (
        b"dgp,n,estimator,target,int_sq_bias,int_variance,excluded_fraction,"
        b"degenerate\r\n"
        b"DepDis,5,classical,mean,0.10000000000000001,-0,1e-300,false\r\n"
        b"DepDis,5,ftc,mean,,1.2345678901234566e+17,0.5,true\r\n"
    )
    sel_spec = ExperimentSpec(mode=MODE_TEST_SELECTION, **spec)
    sel = (SelectionCell("DepDis", 5, 100.0 / 3, _NEG0, _NAN),)
    assert _written(tmp_path, lambda p: write_experiment_csv(sel_spec, sel, p)) == _metadata(
        "test_selection"
    ) + (
        b"dgp,n,null_pct,v_pct,other_pct\r\n"
        b"DepDis,5,33.333333333333336,-0,\r\n"
    )


def test_experiment_metadata_joins_lists_like_tuples(tmp_path):
    cells = (SelectionCell("DepDis", 5, 100.0, 0.0, 0.0),)
    spec = dict(mode=MODE_TEST_SELECTION, replications=2, p=3, alpha=0.1)
    as_lists = ExperimentSpec(kinds=["DepDis"], n=[5], targets=["mean"], **spec)
    as_tuples = ExperimentSpec(kinds=("DepDis",), n=(5,), targets=("mean",), **spec)
    written = [
        _written(tmp_path, lambda p, s=s: write_experiment_csv(s, cells, p))
        for s in (as_lists, as_tuples)
    ]
    assert written[0] == written[1]
    assert written[0].startswith(_metadata("test_selection"))


def test_io_import_leaves_the_experiment_engine_unloaded():
    # Reading and writing tables sits below the Monte-Carlo engine and its
    # process pool.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ftcfd.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, ftcfd.io; print('ftcfd.harness' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"
