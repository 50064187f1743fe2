import numpy as np
import pytest

from ftcfd.core import FunctionalSample, make_grid
from ftcfd.dgp import DgpConfig, draw_sample
from ftcfd.errors import ParseError
from ftcfd.io import (
    parse_sample_csv,
    read_sample_csv,
    write_coefficient_sidecar,
    write_matrix_csv,
    write_sample_csv,
    write_vector_csv,
)


def test_round_trip_is_bit_exact(tmp_path):
    sample, _, _ = draw_sample(DgpConfig("DepCon", n=25, p=41, seed=8))
    path = tmp_path / "sample.csv"
    write_sample_csv(sample, path)
    back = read_sample_csv(path)
    assert np.array_equal(back.grid.points, sample.grid.points)
    assert np.array_equal(back.mask, sample.mask)
    assert np.array_equal(
        np.nan_to_num(back.values, nan=-1.25e308),
        np.nan_to_num(sample.values, nan=-1.25e308),
    )


def test_round_trip_extreme_values(tmp_path):
    g = make_grid(3, 0.0, 1.0)
    vals = np.array([[1e-300, -1.2345678901234567e17, np.nan]])
    s = FunctionalSample.from_values(g, vals)
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


def test_parse_missing_cells_become_mask():
    s = parse_sample_csv("t,0,0.5,1\ncurve_1,1,,3\n")
    assert np.array_equal(s.mask, [[True, False, True]])


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN"])
def test_parse_rejects_non_finite_observed_cell(cell):
    with pytest.raises(ParseError) as err:
        parse_sample_csv(f"t,0,0.5,1\ncurve_1,1,,3\ncurve_2,1,{cell},3\n")
    assert err.value.line == 3


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
    write_vector_csv(vpath, g, np.array([1.0, np.nan, 3.0]), name="mean")
    lines = vpath.read_text().strip().splitlines()
    assert lines[0] == "t,mean"
    assert lines[2] == "0.5,"  # undefined cell is empty
    mpath = tmp_path / "m.csv"
    write_matrix_csv(mpath, g, np.eye(3))
    lines = mpath.read_text().strip().splitlines()
    assert lines[0].startswith("s,0,0.5,1")
    assert len(lines) == 4
