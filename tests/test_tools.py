"""tools/check_tables.py's diff printer and table directory on small table bytes.

No experiment runs: table_bytes is replaced by fixed bytes.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

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


_ENTRY_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_entry.py"
_entry_spec = importlib.util.spec_from_file_location("bench_entry", _ENTRY_PATH)
bench_entry = importlib.util.module_from_spec(_entry_spec)
_entry_spec.loader.exec_module(bench_entry)


def _write_result(directory, name, workload, seed, op_s, commit, trace=0, rss=50.0):
    directory.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": workload, "seed": seed, "seconds": 30.0, "trace": trace,
        "env": {"numpy": "2.4.6", "OPENBLAS_NUM_THREADS": "1", "git_commit": commit},
        "attempted": 10, "failed": 1 if seed == 2 else 0,
        "metrics": {"setup_s": 0.1, "op_s_p50": op_s, "peak_rss_mb": rss},
    }
    (directory / name).write_text(json.dumps(result))


def test_bench_entry_summarises_each_side_of_interleaved_runs(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, op_s in zip(range(1, 6), [1.0, 2.0, 3.0, 4.0, 5.0]):
        _write_result(parent, f"mc-{seed}.json", "mc", seed, op_s, "aaa")
        _write_result(change, f"mc-{seed}.json", "mc", seed, op_s / 2, "bbb")
    _write_result(parent, "af-1.json", "af", 1, 3.0, "aaa")
    _write_result(change, "af-1.json", "af", 1, 3.0, "bbb")
    # A traced run holds per-layer metrics only, so it is left out.
    _write_result(change, "mc-traced.json", "mc", 9, 100.0, "bbb", trace=1)
    out = tmp_path / "BENCH_2.json"
    assert bench_entry.main(["--parent", str(parent), "--change", str(change),
                             "--out", str(out)]) == 0
    entry = json.loads(out.read_text())
    assert entry["previous"] is None
    mc = entry["workloads"]["mc"]
    assert (mc["parent"]["runs"], mc["parent"]["seeds"]) == (5, [1, 2, 3, 4, 5])
    assert (mc["parent"]["attempted"], mc["parent"]["failed"]) == (50, 1)
    assert mc["parent"]["metrics"]["op_s_p50"] == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0, "n": 5
    }
    assert mc["change"]["metrics"]["op_s_p50"]["median"] == 1.5
    assert mc["ratio"] == {"setup_s": 1.0, "op_s_p50": 0.5, "peak_rss_mb": 1.0}
    assert [e["git_commit"] for e in mc["change"]["env"]] == ["bbb"]
    assert mc["flags"] == [] and entry["workloads"]["af"]["ratio"]["op_s_p50"] == 1.0
    assert "mc: 5 / 5 runs; change/parent setup_s 1.000, op_s_p50 0.500" in capsys.readouterr().out

    # Against that entry, a change median above 1.5x its median is flagged;
    # one at 1.5x is not.
    later = tmp_path / "later"
    for seed in range(1, 4):
        _write_result(later, f"mc-{seed}.json", "mc", seed, 2.26, "ccc", rss=75.0)
    out3 = tmp_path / "BENCH_3.json"
    bench_entry.main(["--parent", str(change), "--change", str(later),
                      "--previous", str(out), "--out", str(out3)])
    entry = json.loads(out3.read_text())
    assert entry["previous"] == "BENCH_2.json"
    assert entry["workloads"]["mc"]["flags"] == [
        "op_s_p50: median 2.26 is 1.51x the previous 1.5"
    ]
    assert "FLAG mc op_s_p50: median 2.26 is 1.51x" in capsys.readouterr().out


_TIER1 = """\
........................................................................ [100%]
============================= slowest 6 durations ==============================
9.72s setup    tests/test_acceptance.py::test_criterion_1
8.04s call     tests/test_acceptance.py::test_criterion_5
2.78s call     tests/test_harness.py::test_pool[64-kinds4-n4-25-12]
1.86s setup    tests/test_acceptance.py::test_criterion_3
1.48s call     tests/test_mcar.py::test_fwer
0.90s teardown tests/test_cli.py::test_x

(12 durations < 0.005s hidden.  Use -vv to show these durations.)
406 passed in 40.84s
"""


def test_bench_entry_stores_the_five_slowest_tier1_phases(tmp_path, capsys):
    runs = tmp_path / "runs"
    _write_result(runs, "mc-1.json", "mc", 1, 1.0, "aaa")
    tier1 = tmp_path / "tier1.txt"
    tier1.write_text(_TIER1)
    out = tmp_path / "BENCH_2.json"
    args = ["--parent", str(runs), "--change", str(runs), "--out", str(out)]
    assert bench_entry.main(args + ["--durations", str(tier1)]) == 0
    durations = json.loads(out.read_text())["tier1_durations"]
    assert [(d["seconds"], d["phase"]) for d in durations] == [
        (9.72, "setup"), (8.04, "call"), (2.78, "call"), (1.86, "setup"), (1.48, "call")
    ]
    assert durations[2]["test"] == "tests/test_harness.py::test_pool[64-kinds4-n4-25-12]"
    # Without the flag the entry has no such key; a file without the report
    # is refused and nothing is written.
    bench_entry.main(args)
    assert "tier1_durations" not in json.loads(out.read_text())
    out.unlink()
    tier1.write_text("406 passed in 40.84s\n")
    with pytest.raises(SystemExit) as exit_info:
        bench_entry.main(args + ["--durations", str(tier1)])
    assert exit_info.value.code == 2 and not out.exists()
    assert "holds no --durations report" in capsys.readouterr().err
