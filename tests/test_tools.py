"""tools/check_tables.py's diff printer on small table bytes; no experiment runs."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "check_tables.py"
_spec = importlib.util.spec_from_file_location("check_tables", _PATH)
check_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_tables)

_TABLE = (
    "# mode=bias_variance\n"
    "dgp,n,estimator,target,int_sq_bias,degenerate\n"
    "DepDis,50,classical,mean,2.0,false\n"
    "DepDis,150,ftc,mean,4.0,false\n"
)


def _moves(fresh: str) -> list[str]:
    return check_tables.largest_moves(_TABLE.encode(), fresh.encode())


def test_identical_tables_give_no_lines():
    assert _moves(_TABLE) == []
    # Comment lines are not fields.
    assert _moves(_TABLE.replace("# mode=bias_variance", "# mode=other")) == []


def test_a_moved_cell_is_reported_with_its_row_key():
    fresh = _TABLE.replace("150,ftc,mean,4.0", "150,ftc,mean,5.0")
    assert _moves(fresh) == ["int_sq_bias: largest relative move 0.25 (DepDis,150,ftc,mean)"]
    assert check_tables._relative_move("4.0", "5.0") == 0.25
    assert check_tables._relative_move("4.0", "4.0") == 0.0


def test_a_non_numeric_change_reads_inf():
    fresh = _TABLE.replace("150,ftc,mean,4.0,false", "150,ftc,mean,4.0,true")
    assert _moves(fresh) == ["degenerate: largest relative move inf (DepDis,150,ftc,mean)"]
    assert check_tables._relative_move("false", "true") == math.inf
    # A move away from zero has no relative size either.
    assert check_tables._relative_move("0", "1e-300") == math.inf


def test_a_changed_row_count_reads_layout_changed():
    (line,) = _moves(_TABLE + "IndCon,500,ftc,mean,1.0,false\n")
    assert line.startswith("layout changed: 2 -> 3 rows")
