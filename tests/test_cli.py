import pytest

from ftcfd.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


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


def test_experiment_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode=bias_variance\nwibble=1\n")
    code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert "wibble" in capsys.readouterr().err
