import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ftcfd
from ftcfd import cli, core, estimators, harness
from ftcfd.basis import BasisSpec, eval_basis
from ftcfd.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from ftcfd.core import FunctionalSample
from ftcfd.dgp import DgpConfig, draw_sample
from ftcfd.io import read_sample_csv, write_sample_csv


def test_simulate_then_estimate_pipeline(tmp_path, capsys):
    sample_path = tmp_path / "sample.csv"
    sidecar = tmp_path / "side.csv"
    assert (
        main(
            [
                "simulate", "--dgp", "DepCon", "--n", "30", "--p", "101",
                "--seed", "4", "--out", str(sample_path), "--sidecar", str(sidecar),
            ]
        )
        == EXIT_OK
    )
    assert sample_path.exists()
    assert sidecar.read_text().startswith("i,d_i,xi_1")
    out_dir = tmp_path / "est"
    assert main(["estimate", str(sample_path), "--out", str(out_dir)]) == EXIT_OK
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 4
    for name in ("mean_classical.csv", "mean_ftc.csv", "cov_classical.csv", "cov_ftc.csv"):
        assert (out_dir / name).exists()


def test_simulate_extension_design(tmp_path):
    path = tmp_path / "v2.csv"
    args = ["simulate", "--dgp", "V2", "--n", "10", "--p", "21", "--out", str(path)]
    assert main(args) == EXIT_OK
    assert path.read_text().startswith("t,")


def test_missing_input_exits_with_data_code(tmp_path, capsys):
    assert main(["estimate", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == EXIT_DATA
    assert "ftcfd:" in capsys.readouterr().err


def test_empty_input_exits_with_data_code(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["test", str(empty)]) == EXIT_DATA
    assert "ftcfd:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "test"])
def test_non_finite_cell_exits_with_data_code(tmp_path, capsys, command):
    path = tmp_path / "inf.csv"
    path.write_text("t,0,0.5,1\ncurve_1,1,2,3\ncurve_2,1,inf,\n")
    out = ["--out", str(tmp_path / "est")] if command == "estimate" else []
    assert main([command, str(path)] + out) == EXIT_DATA
    assert "line 3" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--dgp", "DepDis", "--n", "5", "--frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_unknown_design_exits_with_usage_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--dgp", "Bogus", "--n", "5", "--out", str(tmp_path / "x")])
    assert exc.value.code == EXIT_USAGE


def test_test_command_prints_report(tmp_path, capsys):
    sample_path = tmp_path / "s.csv"
    main(
        ["simulate", "--dgp", "DepDis", "--n", "100", "--p", "101",
         "--seed", "9", "--out", str(sample_path)]
    )
    capsys.readouterr()
    code = main(
        ["test", str(sample_path), "--bootstrap", "200", "--j-max", "21", "--seed", "1"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "outcome=" in out
    assert "p_values=" in out


def test_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(
        [
            "experiment", "--mode", "bias_variance", "--dgp", "IndDis",
            "--n", "15", "--reps", "2", "--p", "31", "--targets", "mean",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    text = out.read_text()
    assert "# mode=bias_variance" in text
    assert "dgp,n,estimator,target" in text
    assert str(out) in capsys.readouterr().out


def test_experiment_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "mode=bias_variance\ndgp=IndDis\nn=15\nreps=2\np=31\ntargets=mean\n"
    )
    out = tmp_path / "from_config.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert "# kinds=IndDis" in text
    assert "# replications=2" in text
    # explicit flags override the config file
    out2 = tmp_path / "override.csv"
    assert (
        main(["experiment", "--config", str(cfg), "--reps", "3", "--out", str(out2)])
        == EXIT_OK
    )
    assert "# replications=3" in out2.read_text()


# One non-default value per experiment option, small enough to run quickly.
_EXPERIMENT_BASE = {
    "mode": "test_selection", "dgp": "IndDis", "n": "30", "reps": "1", "p": "31",
    "alpha": "0.05", "bootstrap": "100", "j_max": "7", "seed": "0", "targets": "mean",
}
_EXPERIMENT_VALUES = {
    "mode": "bias_variance", "dgp": "DepDis,IndCon", "n": "25,30", "reps": "2",
    "p": "41", "alpha": "0.1", "bootstrap": "200", "j_max": "9", "seed": "3",
    "targets": "mean,cov",
}


@pytest.mark.parametrize("key", sorted(_EXPERIMENT_VALUES))
def test_experiment_config_key_matches_flag(tmp_path, key):
    # Setting one option in the config file or by its flag writes the same table.
    base = tmp_path / "base.cfg"
    base.write_text("".join(f"{k}={v}\n" for k, v in _EXPERIMENT_BASE.items() if k != key))
    cfg = tmp_path / "one.cfg"
    cfg.write_text(base.read_text() + f"{key}={_EXPERIMENT_VALUES[key]}\n")
    by_config, by_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    flag = "--" + key.replace("_", "-")
    assert main(["experiment", "--config", str(cfg), "--out", str(by_config)]) == EXIT_OK
    assert main(["experiment", "--config", str(base), flag, _EXPERIMENT_VALUES[key],
                 "--out", str(by_flag)]) == EXIT_OK
    assert by_config.read_bytes() == by_flag.read_bytes()


@pytest.mark.parametrize("key", ["n", "reps", "alpha", "j_max"])
def test_experiment_rejects_bad_config_value(tmp_path, capsys, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key}=oops\n")
    code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert f"bad config value for {key}" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_experiment_rejects_empty_targets(tmp_path, capsys, monkeypatch, source):
    # Rejected before any replication runs, so no table is written.
    monkeypatch.setattr(harness, "_bias_variance_rep", _no_replication)
    cfg = tmp_path / "c.txt"
    cfg.write_text("targets=\n")
    out = tmp_path / "e.csv"
    argv = ["experiment", "--dgp", "DepDis", "--n", "20", "--reps", "2", "--p", "21"]
    argv += ["--targets", ","] if source == "flag" else ["--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert "targets must name at least one" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, text",
    [
        ("--bootstrap", "3", "R must be >= 100, got 3"),
        ("--alpha", "2", "alpha must be in (0, 1), got 2.0"),
        ("--j-max", "1", "J_max must be odd and >= 3, got 1"),
        ("--j-max", "4", "J_max must be odd and >= 3, got 4"),
    ],
)
def test_experiment_checks_test_options_before_drawing(
    tmp_path, capsys, monkeypatch, flag, value, text
):
    # Rejected by the spec, before any sample is drawn or replication runs.
    monkeypatch.setattr(harness, "_draw", _no_replication)
    monkeypatch.setattr(harness, "_test_selection_rep", _no_replication)
    out = tmp_path / "sel.csv"
    argv = ["experiment", "--mode", "test_selection", "--dgp", "DepDis", "--n", "50",
            "--reps", "3", "--p", "101", "--bootstrap", "200", flag, value]
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert text in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_experiment_replication_error_names_its_cell(tmp_path, capsys, monkeypatch, workers):
    # n=4 leaves too few curves for the stepdown regression in every
    # replication; the usage error keeps its exit code and names the cell.
    monkeypatch.setenv(harness.WORKERS_ENV, workers)
    argv = ["experiment", "--mode", "test_selection", "--dgp", "IndCon", "--n", "4",
            "--reps", "4", "--p", "31", "--j-max", "11", "--bootstrap", "100",
            "--out", str(tmp_path / "sel.csv")]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "ftcfd: IndCon, n=4, replication 0: need n > J+1 regressors, got n=4, J=5\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--dgp", "DepDis", "--n", "20", "--p", "21", "--seed", "-1"],
        ["test", "SAMPLE", "--bootstrap", "200", "--seed", "-1"],
        ["experiment", "--dgp", "DepDis", "--n", "20", "--reps", "2", "--p", "21",
         "--seed", "-1"],
    ],
    ids=["simulate", "test", "experiment"],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    sample = tmp_path / "sample.csv"
    write_sample_csv(draw_sample(DgpConfig("DepDis", n=20, p=21, seed=1))[0], sample)
    out = tmp_path / "out.csv"
    argv = [str(sample) if a == "SAMPLE" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "ftcfd: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, text",
    [
        ("--p", "-5", "p must be >= 3, got -5"),
        ("--p", "2", "p must be >= 3, got 2"),
        ("--targets", "mean,mean", "repeated targets ['mean', 'mean']"),
        ("--dgp", "DepDis,DepDis", "repeated kinds ['DepDis', 'DepDis']"),
        ("--n", "20,20", "repeated n values [20, 20]"),
    ],
)
def test_experiment_checks_grid_and_targets_before_drawing(
    tmp_path, capsys, monkeypatch, flag, value, text
):
    monkeypatch.setattr(harness, "_draw", _no_replication)
    out = tmp_path / "bv.csv"
    argv = ["experiment", "--dgp", "DepDis", "--n", "20", "--reps", "2", "--p", "21"]
    assert main(argv + [flag, value, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"ftcfd: {text}\n"
    assert not out.exists()


def test_experiment_unwritable_out_dir_fails_before_running(tmp_path, capsys, monkeypatch):
    # The output directory is made before the replications, so a path under
    # a regular file fails at once instead of after the whole run.
    monkeypatch.setattr(cli, "run_experiment", _no_replication)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = ["experiment", "--dgp", "DepDis", "--n", "20", "--reps", "2", "--p", "21"]
    assert main(argv + ["--out", str(blocker / "x.csv")]) == EXIT_DATA
    assert "blocker" in capsys.readouterr().err


def _no_replication(task):
    raise AssertionError("a replication ran")


def test_experiment_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode=bias_variance\nwibble=1\n")
    code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert "wibble" in capsys.readouterr().err


def _write_rows(path, rows):
    lines = ["t," + ",".join(str(i / 10) for i in range(11))]
    for i, row in enumerate(rows, start=1):
        lines.append(f"curve_{i}," + ",".join("" if v is None else repr(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


_BASE = [float(v) for v in range(11)]
# Curves 2 and 3 miss their beginnings, so there is no interval pattern;
# grid points 0.3 to 0.8 are observed by every curve.
_NON_INTERVAL_ROWS = [
    _BASE,
    [None, None] + [2 * v for v in _BASE[2:]],
    [None, None, None] + [v * v for v in _BASE[3:9]] + [None, None],
]


# Curves 1 and 2 observe 0.0 to 0.4, curve 3 only 0.6 to 1.0.
_DISJOINT_ROWS = [_BASE[:5] + [None] * 6, _BASE[:5] + [None] * 6, [None] * 6 + _BASE[6:]]


def test_estimate_non_interval_sample_needs_no_anchor(tmp_path, capsys):
    path = tmp_path / "s.csv"
    _write_rows(path, _NON_INTERVAL_ROWS)
    assert main(["estimate", str(path), "--out", str(tmp_path / "est")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (tmp_path / "est" / "cov_ftc.csv").exists()


def _estimate_bytes(path, out, extra=()):
    """(exit code, {file name: bytes}) of one estimate run into a fresh directory."""
    code = main(["estimate", str(path), "--out", str(out), *extra])
    files = sorted(os.listdir(out)) if out.exists() else []
    return code, {name: (out / name).read_bytes() for name in files}


@pytest.mark.parametrize("observed", ["interval", "non_interval", "full"])
def test_every_fully_observed_anchor_gives_the_same_bytes(tmp_path, capsys, observed):
    # [l, u] is the runs' common part, so --d-f at any grid point that every
    # curve observes only checks it: the estimates keep their bytes. Any
    # other grid point fails the check and writes nothing.
    path = tmp_path / "s.csv"
    if observed == "interval":
        _simulate(path, "DepCon", 50, 41, 9)
    else:
        rows = _NON_INTERVAL_ROWS if observed == "non_interval" else [_BASE, _BASE[::-1]]
        _write_rows(path, rows)
    code, want = _estimate_bytes(path, tmp_path / "default")
    assert code == EXIT_OK and len(want) == 4
    sample = read_sample_csv(path)
    full = sample.mask.all(axis=0)
    assert full.sum() > 1 and full.all() == (observed == "full")
    for j, t in enumerate(sample.grid.points):
        out = tmp_path / f"d_f_{j}"
        code, got = _estimate_bytes(path, out, ["--d-f", repr(float(t))])
        if full[j]:
            assert (code, got) == (EXIT_OK, want), t
        else:
            assert (code, got) == (EXIT_USAGE, {}), t
            message = f"grid point {t} is not observed for the full sample"
            assert message in capsys.readouterr().err


@pytest.mark.parametrize("d_f", ["nan", "7"])
def test_estimate_rejects_off_grid_anchor(tmp_path, capsys, d_f):
    path = tmp_path / "full.csv"
    _write_rows(path, [[float(v) for v in range(11)], [float(v * v) for v in range(11)]])
    argv = ["estimate", str(path), "--out", str(tmp_path / "est"), "--d-f", d_f]
    assert main(argv) == EXIT_USAGE
    assert "not on the grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, extra, code, message",
    [
        (_DISJOINT_ROWS, [], EXIT_USAGE, "no grid point is observed by every curve"),
        # The estimates succeed; only the scores' subdomain is missing.
        (_NON_INTERVAL_ROWS, ["--fpc-scores"], EXIT_USAGE, "no fully observed subdomain"),
        (_NON_INTERVAL_ROWS, ["--d-f", "7"], EXIT_USAGE, "not on the grid"),
        (
            _NON_INTERVAL_ROWS,
            ["--d-f", "0.2"],
            EXIT_USAGE,
            "grid point 0.2 is not observed for the full sample",
        ),
        (
            [_BASE, _BASE[:2] + [None] + _BASE[3:]],
            ["--d-f", "0.5"],
            EXIT_USAGE,
            "observed set of each curve must be contiguous (curve 2)",
        ),
        ([_BASE, _BASE[:5] + [float("inf")] + _BASE[6:]], [], EXIT_DATA, "line 3"),
        (
            [_BASE, [None] * 11],
            [],
            EXIT_DATA,
            "every curve needs at least one observed point (curve 2)",
        ),
    ],
    ids=[
        "no_anchor",
        "no_score_subdomain",
        "off_grid",
        "not_fully_observed",
        "gap",
        "parse",
        "empty_curve",
    ],
)
def test_failed_estimate_leaves_no_output(tmp_path, capsys, rows, extra, code, message):
    path, out = tmp_path / "s.csv", tmp_path / "est"
    _write_rows(path, rows)
    assert main(["estimate", str(path), "--out", str(out)] + extra) == code
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


def test_estimate_differentiates_once_per_order(tmp_path, monkeypatch):
    # Each estimate run differentiates once per order (K = 1) and builds one
    # sample, which finds every curve's observed run.
    calls = []
    differentiate = estimators.differentiate
    monkeypatch.setattr(
        estimators,
        "differentiate",
        lambda *a: calls.append("differentiate") or differentiate(*a),
    )
    init = FunctionalSample.__init__
    monkeypatch.setattr(
        FunctionalSample,
        "__init__",
        lambda self, *a: calls.append("FunctionalSample") or init(self, *a),
    )
    sample_path = tmp_path / "s.csv"
    _simulate(sample_path, "DepCon", 30, 41, 15)
    for extra in (["--fpc-scores"], ["--d-f", "0.25"]):
        calls.clear()
        argv = ["estimate", str(sample_path), "--out", str(tmp_path / "est"), *extra]
        assert main(argv) == EXIT_OK
        assert sorted(calls) == ["FunctionalSample", "differentiate"], extra


def _simulate(path, kind, n, p, seed):
    argv = ["simulate", "--dgp", kind, "--n", str(n), "--p", str(p), "--seed", str(seed)]
    assert main(argv + ["--out", str(path)]) == EXIT_OK


def _mean_column(path):
    rows = [line.split(",") for line in open(path).read().strip().splitlines()[1:]]
    return np.array([float(r[1]) if r[1] else np.nan for r in rows])


def test_estimate_separates_biased_and_corrected_means(tmp_path):
    sample_path = tmp_path / "s.csv"
    _simulate(sample_path, "DepDis", 300, 101, 12)
    assert main(["estimate", str(sample_path), "--out", str(tmp_path)]) == EXIT_OK
    classical = _mean_column(tmp_path / "mean_classical.csv")
    ftc = _mean_column(tmp_path / "mean_ftc.csv")
    assert abs(classical[-1] - ftc[-1]) > 1.0


def test_estimate_fully_observed_estimates_agree(tmp_path, capsys):
    sample, _, xi = draw_sample(DgpConfig("IndDis", n=40, p=101, seed=13))
    full = FunctionalSample(
        sample.grid, xi @ eval_basis(BasisSpec(5, (0.0, 1.0)), sample.grid.points).T
    )
    sample_path = tmp_path / "full.csv"
    write_sample_csv(full, sample_path)
    assert main(["estimate", str(sample_path), "--out", str(tmp_path)]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 4
    classical = _mean_column(tmp_path / "mean_classical.csv")
    ftc = _mean_column(tmp_path / "mean_ftc.csv")
    assert np.abs(classical - ftc).max() < 1e-3


def test_estimate_writes_component_scores(tmp_path, capsys):
    sample_path = tmp_path / "s.csv"
    _simulate(sample_path, "DepCon", 50, 101, 14)
    argv = ["estimate", str(sample_path), "--out", str(tmp_path), "--fpc-scores"]
    assert main(argv) == EXIT_OK
    path = tmp_path / "fpc_scores.csv"
    assert str(path) in capsys.readouterr().out.splitlines()
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# explained=")
    assert lines[1].startswith("i,score_1")
    assert len(lines) == 2 + 50


def test_prefix_commands_run_on_a_grid_in_small_units(tmp_path, capsys):
    # [0, 1e-11]: spacing 1e-13, below any absolute tolerance on the grid.
    sample, _, _ = draw_sample(DgpConfig("DepDis", n=60, p=101, seed=1))
    grid = core.Grid(sample.grid.points * 1e-11)
    path = tmp_path / "small.csv"
    write_sample_csv(FunctionalSample(grid, sample.values), path)
    assert main(["test", str(path)]) == EXIT_OK
    assert "outcome=V" in capsys.readouterr().out
    argv = ["estimate", str(path), "--out", str(tmp_path / "est"), "--fpc-scores"]
    assert main(argv) == EXIT_OK
    header = (tmp_path / "est" / "fpc_scores.csv").read_text().splitlines()[1]
    assert header.startswith("i,score_1")


@pytest.fixture(scope="module")
def dep_dis_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("dep") / "dep.csv"
    dep, _, _ = draw_sample(DgpConfig("DepDis", n=250, p=501, seed=(71, 0)))
    write_sample_csv(dep, path)
    return path


def test_test_outcomes(tmp_path, capsys, dep_dis_path):
    report = tmp_path / "dep.txt"
    assert main(["test", str(dep_dis_path), "--out", str(report)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert "outcome=V" in report.read_text()
    assert main(["test", str(dep_dis_path)]) == EXIT_OK
    assert capsys.readouterr().out == report.read_text()
    ind, _, _ = draw_sample(DgpConfig("IndDis", n=250, p=501, seed=(73, 0)))
    ind_path = tmp_path / "ind.csv"
    write_sample_csv(ind, ind_path)
    assert main(["test", str(ind_path)]) == EXIT_OK
    assert "outcome=Null" in capsys.readouterr().out


def test_test_checks_options_on_a_degenerate_sample(tmp_path, capsys):
    # Every curve ends at t_p, so the report would be the degenerate Null.
    path = tmp_path / "full.csv"
    _write_rows(path, [_BASE, [v * v for v in _BASE], [v + 1.0 for v in _BASE]])
    argv = ["test", str(path), "--alpha", "7", "--bootstrap", "3", "--j-max", "4"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "J_max must be odd and >= 3, got 4" in captured.err and captured.out == ""


def test_test_j_max_does_not_change_clear_outcome(capsys, dep_dis_path):
    assert main(["test", str(dep_dis_path), "--j-max", "41"]) == EXIT_OK
    assert "outcome=V" in capsys.readouterr().out


def test_scipy_stays_unloaded_without_depcon_draws(tmp_path):
    # scipy.special alone adds ~0.3 s to every command's start; only DepCon
    # draws import it, so neither the CLI nor other designs may load scipy.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ftcfd.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = textwrap.dedent(
        """
        import sys
        import ftcfd.cli

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        print(loaded())
        argv = ["experiment", "--dgp", "DepDis,IndCon", "--n", "20", "--reps", "2",
                "--p", "21", "--out", sys.argv[1]]
        assert ftcfd.cli.main(argv) == 0
        print(loaded())
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "bv.csv")],
        env={**os.environ, "PYTHONPATH": path, harness.WORKERS_ENV: "1"},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    lines = out.splitlines()  # main also prints the table's path
    assert (lines[0], lines[-1]) == ("[]", "[]")
