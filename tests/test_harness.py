import pytest

from ftcfd import estimators, harness
from ftcfd.errors import ArgumentError
from ftcfd.harness import (
    MODE_BIAS_VARIANCE,
    MODE_TEST_SELECTION,
    ExperimentSpec,
    run_experiment,
)
from ftcfd.io import write_experiment_csv


def _bv_spec(**kw):
    base = dict(
        mode=MODE_BIAS_VARIANCE,
        kinds=("IndCon",),
        n=(20,),
        replications=4,
        p=51,
        targets=("mean",),
        seed=0,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ArgumentError):
        _bv_spec(mode="nope")
    with pytest.raises(ArgumentError):
        _bv_spec(replications=0)
    with pytest.raises(ArgumentError):
        _bv_spec(kinds=("Bogus",))
    with pytest.raises(ArgumentError):
        _bv_spec(n=())
    with pytest.raises(ArgumentError):
        _bv_spec(targets=("median",))
    with pytest.raises(ArgumentError):
        ExperimentSpec(
            mode=MODE_TEST_SELECTION,
            kinds=("IndDis",),
            n=(20,),
            replications=2,
            J_max=20,
        )


def test_bias_variance_cells_are_nonnegative():
    result = run_experiment(_bv_spec())
    assert len(result.cells) == 2  # classical + ftc, one kind/n/target
    for cell in result.cells:
        assert cell.int_sq_bias >= 0.0
        assert cell.int_variance >= 0.0
        assert 0.0 <= cell.excluded_fraction < 1.0
        assert not cell.degenerate


def test_bias_variance_single_replication_is_degenerate():
    result = run_experiment(_bv_spec(replications=1))
    for cell in result.cells:
        assert cell.degenerate
        assert cell.int_variance == 0.0


def test_bias_variance_excludes_rarely_defined_points():
    # IndCon endpoints are < 1 almost surely, so the right edge of the grid
    # is undefined in most replications and must be dropped from the integrals.
    result = run_experiment(_bv_spec(kinds=("IndCon",), replications=6))
    classical = next(c for c in result.cells if c.estimator == "classical")
    assert classical.excluded_fraction > 0.0


def test_selection_percentages_sum_to_hundred():
    spec = ExperimentSpec(
        mode=MODE_TEST_SELECTION,
        kinds=("IndDis", "DepDis"),
        n=(40,),
        replications=3,
        p=101,
        J_max=21,
        R=200,
        seed=0,
    )
    result = run_experiment(spec)
    assert len(result.cells) == 2
    for cell in result.cells:
        assert cell.null_pct + cell.v_pct + cell.other_pct == pytest.approx(100.0)


def test_result_csv_is_deterministic(tmp_path):
    spec = _bv_spec(replications=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_experiment_csv(run_experiment(spec), a)
    write_experiment_csv(run_experiment(spec), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("targets", [("mean",), ("mean", "cov")], ids=["mean", "mean_cov"])
def test_workers_do_not_change_results(tmp_path, monkeypatch, targets):
    spec = _bv_spec(replications=4, targets=targets)
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
    write_experiment_csv(run_experiment(spec), seq)
    monkeypatch.setenv(harness.WORKERS_ENV, "2")
    write_experiment_csv(run_experiment(spec), par)
    assert seq.read_bytes() == par.read_bytes()


def test_selection_workers_do_not_change_results(tmp_path, monkeypatch):
    spec = ExperimentSpec(
        mode=MODE_TEST_SELECTION,
        kinds=("IndDis", "DepDis"),
        n=(40,),
        replications=3,
        p=101,
        J_max=11,
        R=100,
        seed=0,
    )
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
    write_experiment_csv(run_experiment(spec), seq)
    monkeypatch.setenv(harness.WORKERS_ENV, "2")
    write_experiment_csv(run_experiment(spec), par)
    assert seq.read_bytes() == par.read_bytes()


def test_bias_is_scored_against_each_kinds_truth(monkeypatch):
    # The reducer asks for the truth of the cell's own kind, not a default.
    asked = []
    original = harness.true_mean
    monkeypatch.setattr(
        harness, "true_mean", lambda t, kind: asked.append(kind) or original(t, kind)
    )
    run_experiment(_bv_spec(kinds=("IndCon", "DepDis"), replications=1))
    assert asked == ["IndCon", "DepDis"]


def test_replication_computes_moments_once(monkeypatch):
    # One replication of both targets differentiates once per order (K = 1)
    # and summarises the observation pattern once.
    calls = []
    for name in ("differentiate", "summarize_observation"):
        original = getattr(estimators, name)
        monkeypatch.setattr(
            estimators, name, lambda s, f=original, n=name: calls.append(n) or f(s)
        )
    spec = _bv_spec(targets=("mean", "cov"))
    out = harness._bias_variance_rep((spec, "DepDis", 40, 0))
    assert sorted(out) == ["cov_classical", "cov_ftc", "mean_classical", "mean_ftc"]
    assert sorted(calls) == ["differentiate", "summarize_observation"]


def test_workers_env_must_be_integer(monkeypatch):
    monkeypatch.setenv(harness.WORKERS_ENV, "two")
    with pytest.raises(ArgumentError):
        run_experiment(_bv_spec(replications=1))


def test_result_csv_metadata_header(tmp_path):
    spec = _bv_spec(replications=2)
    path = tmp_path / "r.csv"
    write_experiment_csv(run_experiment(spec), path)
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    keys = {l[2:].split("=", 1)[0] for l in meta}
    assert keys == {
        "mode", "kinds", "n", "replications", "p",
        "J_max", "alpha", "R", "seed", "targets",
    }
    assert "# mode=bias_variance" in meta
    header = lines[len(meta)]
    assert header.startswith("dgp,n,estimator,target,")
