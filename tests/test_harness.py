import copy
import multiprocessing
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcfd import estimators, harness
from ftcfd.core import FunctionalSample
from ftcfd.dgp import KINDS, draw_sample, true_cov, true_mean
from ftcfd.errors import ArgumentError, NumericalError
from ftcfd.harness import (
    MODE_BIAS_VARIANCE,
    MODE_TEST_SELECTION,
    ExperimentSpec,
    run_experiment,
)
from ftcfd.io import write_experiment_csv

from reference import cell_summary, full_square_summary, unfold


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


def _rep_sample(spec, kind, n, rep):
    """The sample that replication ``rep`` of the (kind, n) cell draws."""
    return draw_sample(kind, n, spec.p, (spec.seed, rep))[0]


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
    with pytest.raises(ArgumentError, match="targets must name at least one"):
        _bv_spec(targets=())
    # Checked here, before the lazy replication map reaches any draw.
    for option, text in [
        (dict(p=-5), "p must be >= 3, got -5"),
        (dict(p=2), "p must be >= 3, got 2"),
        (dict(seed=-2), "seed must be >= 0, got -2"),
        (dict(targets=("mean", "mean")), r"repeated targets \['mean', 'mean'\]"),
        (dict(kinds=("IndCon", "IndCon")), r"repeated kinds \['IndCon', 'IndCon'\]"),
        (dict(n=(20, 30, 20)), r"repeated n values \[20, 30, 20\]"),
    ]:
        for mode in (MODE_BIAS_VARIANCE, MODE_TEST_SELECTION):
            with pytest.raises(ArgumentError, match=text):
                _bv_spec(mode=mode, **option)
    # The test options are checked with the texts select_J and the stepdown
    # test use, and only in the mode that uses them.
    for option, text in [
        (dict(J_max=20), "J_max must be odd and >= 3, got 20"),
        (dict(J_max=1), "J_max must be odd and >= 3, got 1"),
        (dict(alpha=2.0), r"alpha must be in \(0, 1\), got 2.0"),
        (dict(alpha=0.0), r"alpha must be in \(0, 1\), got 0.0"),
        (dict(R=3), "R must be >= 100, got 3"),
    ]:
        with pytest.raises(ArgumentError, match=text):
            _bv_spec(mode=MODE_TEST_SELECTION, **option)
        assert _bv_spec(**option).mode == MODE_BIAS_VARIANCE


def test_bias_variance_cells_are_nonnegative():
    cells = run_experiment(_bv_spec())
    assert len(cells) == 2  # classical + ftc, one kind/n/target
    for cell in cells:
        assert cell.int_sq_bias >= 0.0
        assert cell.int_variance >= 0.0
        assert 0.0 <= cell.excluded_fraction < 1.0
        assert not cell.degenerate


def test_bias_variance_single_replication_is_degenerate():
    for cell in run_experiment(_bv_spec(replications=1)):
        assert cell.degenerate
        assert cell.int_variance == 0.0


def test_bias_variance_excludes_rarely_defined_points():
    # IndCon endpoints are < 1 almost surely, so the right edge of the grid
    # is undefined in most replications and must be dropped from the integrals.
    cells = run_experiment(_bv_spec(kinds=("IndCon",), replications=6))
    classical = next(c for c in cells if c.estimator == "classical")
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
    cells = run_experiment(spec)
    assert len(cells) == 2
    for cell in cells:
        assert cell.null_pct + cell.v_pct + cell.other_pct == pytest.approx(100.0)


def test_result_csv_is_deterministic(tmp_path):
    spec = _bv_spec(replications=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_experiment_csv(spec, run_experiment(spec), a)
    write_experiment_csv(spec, run_experiment(spec), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("targets", [("mean",), ("mean", "cov")], ids=["mean", "mean_cov"])
def test_workers_do_not_change_results(tmp_path, monkeypatch, targets):
    # Three chunks per cell, the last of one replication, so the parent
    # merges chunks that different workers accumulated. IndCon estimates are
    # undefined near the right edge in some replications, so the merged
    # counts are partial.
    reps = 2 * harness._CHUNK + 1
    spec = _bv_spec(n=(20, 30), replications=reps, targets=targets)
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
    cells = run_experiment(spec)
    assert any(0.0 < c.excluded_fraction for c in cells)
    write_experiment_csv(spec, cells, seq)
    monkeypatch.setenv(harness.WORKERS_ENV, "2")
    write_experiment_csv(spec, run_experiment(spec), par)
    assert seq.read_bytes() == par.read_bytes()


@settings(deadline=None, max_examples=20)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**16),
    reps=st.integers(2, 3 * harness._CHUNK + 1),
)
def test_chunked_accumulation_matches_one_replication_at_a_time(kind, seed, reps):
    spec = _bv_spec(kinds=(kind,), n=(30,), p=31, replications=reps, seed=seed,
                    targets=("mean", "cov"))
    counts = []
    original = harness._Accumulator.summarize

    def recording(acc, reps):
        counts.append(acc.cnt.copy())
        return original(acc, reps)

    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(harness.WORKERS_ENV, raising=False)
        mp.setattr(harness._Accumulator, "summarize", recording)
        cells = run_experiment(spec)

    pts = np.linspace(0.0, 1.0, spec.p)
    truth = {"mean": true_mean(pts, kind), "cov": true_cov(pts, pts, kind)}
    keys = [(t, est) for t in spec.targets for est in ("classical", "ftc")]
    accs = {key: harness._Accumulator(truth[key[0]].shape) for key in keys}
    for acc in accs.values():
        acc.cnt = acc.cnt.astype(float)
    for rep in range(reps):
        out = harness._bias_variance_rep(spec, _rep_sample(spec, kind, 30, rep), rep)
        for (t, est), acc in accs.items():
            acc.add(out[f"{t}_{est}"])
    assert len(counts) == len(cells) == len(keys)
    upper = harness._upper(spec.p)
    for (t, _), cnt, acc, cell in zip(keys, counts, accs.values(), cells):
        # The cell reduces a covariance on its upper triangle.
        np.testing.assert_array_equal(cnt, acc.cnt if t == "mean" else acc.cnt[upper])
        want = full_square_summary(acc.cnt, acc.sum, acc.sumsq, truth[t], reps, pts[1] - pts[0])
        got = (cell.int_sq_bias, cell.int_variance, cell.excluded_fraction)
        assert got[2] == want[2]
        np.testing.assert_allclose(got[:2], want[:2], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("reps", [1, 2, 5, 13])
def test_cells_match_the_reference_summary(monkeypatch, reps):
    # The streamed counts, sums and sums of squares against a two-pass mean
    # and variance of the stacked replications. At n = 3 and 8 some grid
    # points are excluded and others defined in a single replication.
    monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
    spec = _bv_spec(kinds=("IndCon", "DepDis", "DepCon"), n=(3, 8), p=31,
                    replications=reps, targets=("mean", "cov"))
    pts = np.linspace(0.0, 1.0, spec.p)
    cells = iter(run_experiment(spec))
    for kind in spec.kinds:
        for n in spec.n:
            outs = [harness._bias_variance_rep(spec, _rep_sample(spec, kind, n, rep), rep)
                    for rep in range(reps)]
            for t in spec.targets:
                truth = true_mean(pts, kind) if t == "mean" else true_cov(pts, pts, kind)
                for est in ("classical", "ftc"):
                    cell = next(cells)
                    assert (cell.kind, cell.n, cell.target, cell.estimator) == (kind, n, t, est)
                    want = cell_summary([o[f"{t}_{est}"] for o in outs], truth, reps,
                                        pts[1] - pts[0])
                    got = (cell.int_sq_bias, cell.int_variance, cell.excluded_fraction)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert next(cells, None) is None


def test_a_targets_cells_do_not_depend_on_the_other_targets(monkeypatch):
    # Both targets go through one reduction, whatever else the spec asks
    # for and in whichever order. Three chunks per cell; IndCon leaves some
    # cells excluded.
    monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
    runs = {}
    for targets in [("mean",), ("cov",), ("mean", "cov"), ("cov", "mean")]:
        spec = _bv_spec(kinds=("IndCon", "DepDis"), n=(20,), p=31,
                        replications=2 * harness._CHUNK + 1, targets=targets)
        runs[targets] = {(c.kind, c.target, c.estimator): c for c in run_experiment(spec)}
    alone = {**runs[("mean",)], **runs[("cov",)]}
    assert len(alone) == 8
    assert any(0.0 < c.excluded_fraction for c in alone.values())
    for targets in [("mean", "cov"), ("cov", "mean")]:
        assert runs[targets] == alone


@pytest.mark.parametrize("kind", KINDS)
def test_chunks_ship_covariance_triangles(kind):
    # Each chunk sends p(p + 1)/2 cells per covariance accumulator. The cell
    # reduced on them is byte-identical to the full-square reduction, both of
    # the same triangles mirrored back and of accumulators of full squares.
    spec = _bv_spec(kinds=(kind,), n=(30,), p=31, replications=2 * harness._CHUNK + 1,
                    targets=("mean", "cov"))
    reps = [range(s, min(s + harness._CHUNK, spec.replications))
            for s in range(0, spec.replications, harness._CHUNK)]
    chunks = [harness._bias_variance_chunk((spec, kind, 30, r)) for r in reps]
    for chunk in chunks:
        for key in ("cov_classical", "cov_ftc"):
            acc = chunk[key]
            assert acc.cnt.dtype == np.uint8
            assert [x.shape for x in (acc.cnt, acc.sum, acc.sumsq)] == [(31 * 32 // 2,)] * 3
    mirrored = copy.deepcopy(chunks[0])
    for acc in mirrored.values():
        acc.cnt = acc.cnt.astype(float)
    for chunk in chunks[1:]:
        for key, acc in mirrored.items():
            acc.merge(chunk[key])
    for key, acc in mirrored.items():
        if key.startswith("cov"):
            acc.cnt, acc.sum, acc.sumsq = (unfold(a, spec.p) for a in (acc.cnt, acc.sum, acc.sumsq))
    got = harness._bias_variance_cells(spec, kind, 30, chunks)

    merged = {}
    for r in reps:
        full = {}
        for rep in r:
            sample = _rep_sample(spec, kind, 30, rep)
            for key, arr in harness._bias_variance_rep(spec, sample, rep).items():
                full.setdefault(key, harness._Accumulator(arr.shape)).add(arr)
        for key, acc in full.items():
            if key in merged:
                merged[key].merge(acc)
            else:
                acc.cnt = acc.cnt.astype(float)
                merged[key] = acc
    pts = np.linspace(0.0, 1.0, spec.p)
    truth = {"mean": true_mean(pts, kind), "cov": true_cov(pts, pts, kind)}
    got = [(c.int_sq_bias, c.int_variance, c.excluded_fraction) for c in got]
    for accs in (mirrored, merged):
        want = [
            full_square_summary(acc.cnt, acc.sum, acc.sumsq, truth[t], spec.replications,
                                pts[1] - pts[0])
            for t in spec.targets
            for acc in (accs[f"{t}_classical"], accs[f"{t}_ftc"])
        ]
        assert got == want


@settings(deadline=None, max_examples=30)
@given(kind=st.sampled_from(KINDS), p=st.integers(3, 40), data=st.data())
def test_each_half_of_a_covariance_is_scored_against_its_own_truth(kind, p, data):
    # The truth is a matmul, so a cell and its mirror can differ in the last
    # bit. Here it is symmetric but for one cell below the diagonal, moved by
    # one ulp, and the estimates are the symmetric truth: that cell alone has
    # a squared bias, which scoring the lower half against the upper truth
    # would miss.
    i = data.draw(st.integers(1, p - 1))
    j = data.draw(st.integers(0, i - 1))
    pts = np.linspace(0.0, 1.0, p)
    upper = harness._upper(p)
    estimate = true_cov(pts, pts, kind)[upper]
    truth = unfold(estimate, p)
    truth[i, j] = np.nextafter(truth[i, j], data.draw(st.sampled_from([-np.inf, np.inf])))
    chunk = {}
    for est in ("classical", "ftc"):
        chunk[f"cov_{est}"] = harness._Accumulator(estimate.shape)
        chunk[f"cov_{est}"].add(estimate.copy())
    spec = _bv_spec(kinds=(kind,), p=p, replications=1, targets=("cov",))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "true_cov", lambda s, t, kind: truth.copy())
        cells = harness._bias_variance_cells(spec, kind, 20, [chunk])
    full = unfold(estimate, p)
    want = full_square_summary(np.ones((p, p)), full, full * full, truth, 1, pts[1] - pts[0])
    assert want[0] > 0.0
    for cell in cells:
        assert (cell.int_sq_bias, cell.int_variance, cell.excluded_fraction) == want


def test_cell_reduction_holds_at_most_eight_square_arrays():
    # Two chunks at p = 501, both targets. Mirroring count, sum and sum of
    # squares to full squares before reducing peaked at 13.1 p x p arrays.
    spec = _bv_spec(kinds=("DepDis",), p=501, replications=2 * harness._CHUNK,
                    targets=("mean", "cov"))
    chunks = [harness._bias_variance_chunk((spec, "DepDis", 20, range(s, s + harness._CHUNK)))
              for s in (0, harness._CHUNK)]
    tracemalloc.start()
    try:
        harness._bias_variance_cells(spec, "DepDis", 20, chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * np.zeros((501, 501)).nbytes


@pytest.mark.parametrize("workers", ["1", "2"])
def test_first_failing_replication_is_reported(monkeypatch, workers):
    # Replications 14 and 30 fail, in the second and third chunks, which two
    # workers run at the same time; the error names the earlier one.
    if workers != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched replication only when forked")
    original = harness._bias_variance_rep

    def failing(spec, sample, rep):
        if rep in (14, 30):
            raise NumericalError("degenerate draw")
        return original(spec, sample, rep)

    monkeypatch.setattr(harness, "_bias_variance_rep", failing)
    monkeypatch.setenv(harness.WORKERS_ENV, workers)
    with pytest.raises(NumericalError, match=r"^IndCon, n=20, replication 14: degenerate draw$"):
        run_experiment(_bv_spec(replications=3 * harness._CHUNK))


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
    write_experiment_csv(spec, run_experiment(spec), seq)
    monkeypatch.setenv(harness.WORKERS_ENV, "2")
    write_experiment_csv(spec, run_experiment(spec), par)
    assert seq.read_bytes() == par.read_bytes()


def test_one_pool_serves_every_cell(monkeypatch):
    started = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setenv(harness.WORKERS_ENV, "2")
    spec = _bv_spec(kinds=("IndCon", "DepDis"), n=(20, 30), replications=2)
    assert len(run_experiment(spec)) == 8
    assert started == [2]


class _RecordingPool:
    """Stand-in executor: records its size and initializer, runs the
    initializer once, and maps in the calling process."""

    sizes = []
    initializers = []

    def __init__(self, max_workers, initializer):
        self.sizes.append(max_workers)
        self.initializers.append(initializer)
        initializer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "workers, kinds, n, reps, size",
    [
        ("1", ("IndCon",), (20,), 1, None),  # sequential: no pool at all
        ("2", ("IndCon",), (20,), 1, 1),  # one task still runs in a pool
        ("64", ("IndCon",), (20,), 12, 1),
        ("64", ("IndCon",), (20,), 13, 2),  # ceil(13 / 12) tasks
        ("64", ("IndCon", "DepDis"), (20, 30), 25, 12),
        ("5", ("IndCon", "DepDis"), (20, 30), 25, 5),
    ],
)
def test_pool_starts_no_more_workers_than_tasks(monkeypatch, workers, kinds, n, reps, size):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "initializers", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setenv(harness.WORKERS_ENV, workers)
    spec = _bv_spec(kinds=kinds, n=n, replications=reps)
    assert len(run_experiment(spec)) == 2 * len(kinds) * len(n)
    assert _RecordingPool.sizes == ([] if size is None else [size])
    # Every pool worker fixes its malloc thresholds before its first task.
    assert _RecordingPool.initializers == ([] if size is None else [harness._keep_heap])


# Runs one mode's experiment twice in a fresh process and prints the minor
# page faults of the second run.
_SECOND_RUN_FAULTS = textwrap.dedent(
    """
    import resource
    import sys

    from ftcfd.harness import ExperimentSpec, run_experiment

    mode, n, p = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    spec = ExperimentSpec(mode=mode, kinds=("DepDis",), n=(n,), p=p, replications=2)
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_experiment(spec)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
@pytest.mark.parametrize(
    "mode, n, p", [(MODE_TEST_SELECTION, 500, 501), (MODE_BIAS_VARIANCE, 150, 201)]
)
def test_repeated_replications_do_not_page_fault(mode, n, p):
    # With glibc's dynamic thresholds each run returned its large arrays to
    # the kernel and faulted them back in: about 2,700 faults (test_selection)
    # and 1,800 (bias_variance) on the second run.
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SECOND_RUN_FAULTS, mode, str(n), str(p)],
        env={**os.environ, "PYTHONPATH": path, harness.WORKERS_ENV: "1"},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout
    assert int(out) < 50


class _NoMallopt:
    """A C library without mallopt."""

    def __init__(self, name):
        pass


def _no_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_library, _NoMallopt], ids=["no_library", "no_mallopt"])
def test_replications_run_where_mallopt_is_missing(monkeypatch, cdll):
    monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
    spec = _bv_spec(kinds=("IndCon", "DepDis"), targets=("mean", "cov"))
    expected = run_experiment(spec)
    monkeypatch.setattr(harness.ctypes, "CDLL", cdll)
    assert run_experiment(spec) == expected


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
    # and builds one sample, which finds every curve's observed run.
    calls = []
    original = estimators.differentiate
    monkeypatch.setattr(
        estimators, "differentiate", lambda *a: calls.append("differentiate") or original(*a)
    )
    init = FunctionalSample.__init__
    monkeypatch.setattr(
        FunctionalSample,
        "__init__",
        lambda self, *a: calls.append("FunctionalSample") or init(self, *a),
    )
    spec = _bv_spec(targets=("mean", "cov"))
    sample = _rep_sample(spec, "DepDis", 40, 0)
    out = harness._bias_variance_rep(spec, sample, 0)
    assert sorted(out) == ["cov_classical", "cov_ftc", "mean_classical", "mean_ftc"]
    assert sorted(calls) == ["FunctionalSample", "differentiate"]


def test_workers_env_must_be_integer(monkeypatch):
    monkeypatch.setenv(harness.WORKERS_ENV, "two")
    with pytest.raises(ArgumentError):
        run_experiment(_bv_spec(replications=1))


@pytest.mark.parametrize("raw", ["0", "-4"])
def test_workers_env_must_be_positive(monkeypatch, raw):
    monkeypatch.setenv(harness.WORKERS_ENV, raw)
    with pytest.raises(ArgumentError, match=f"FTCFD_WORKERS must be >= 1, got {raw}"):
        run_experiment(_bv_spec(replications=1))


def test_result_csv_metadata_header(tmp_path):
    spec = _bv_spec(replications=2)
    path = tmp_path / "r.csv"
    write_experiment_csv(spec, run_experiment(spec), path)
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
