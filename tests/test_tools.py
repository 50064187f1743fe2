"""tools/check_tables.py's diff printer and table directory on small table bytes.

No experiment runs: table_bytes is replaced by fixed bytes.
"""

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


def test_a_compare_run_reads_the_tables_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(check_tables, "table_bytes", lambda mode: _TABLE.encode())
    assert check_tables.main(["--update", "--tables", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{mode}.csv" for mode in check_tables.MODES
    )
    assert check_tables.main(["--tables", str(tmp_path)]) == 0
    (tmp_path / "test_selection.csv").write_text(_TABLE.replace("4.0", "5.0"))
    capsys.readouterr()
    assert check_tables.main(["--tables", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "bias_variance: identical" in out
    assert f"test_selection: DIFFERS from {tmp_path / 'test_selection.csv'}" in out


def test_a_run_prints_its_blas_thread_setting_first(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(check_tables, "table_bytes", lambda mode: _TABLE.encode())
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    check_tables.main(["--update", "--tables", str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[0] == "OPENBLAS_NUM_THREADS=2"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    check_tables.main(["--update", "--tables", str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[0] == "OPENBLAS_NUM_THREADS=unset"
