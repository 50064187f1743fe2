#!/usr/bin/env python3
"""ftcfd benchmark: end-to-end and per-layer numbers for three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze_files --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src``; the run fails (non-zero
exit, no result line) when that is missing. Each run is one process with one
client in a closed loop: the next operation starts when the previous one has
returned. Every operation is a sequence of ``ftcfd.cli.main`` calls.

Workloads (inputs come from the seed; see workloads.py):

* ``analyze_files``: one round is ``estimate --fpc-scores`` then ``test``
  (J_max=51, R=1000) on each of three simulated CSVs, DepCon (500, 501),
  IndCon (250, 201) and DepDis (150, 501, estimated with ``--d-f 0.25``).
  The analyst's path; the only one that parses and writes files.
* ``mc_test_selection``: ``experiment --mode test_selection`` on the cells
  DepDis,IndCon x n=150,500 at p=501, 4 replications per cell,
  FTCFD_WORKERS=1, one call per cell. Basis selection and the stepdown test
  dominate.
* ``mc_bias_variance``: ``experiment --mode bias_variance --targets
  mean,cov`` on the same cells, 24 replications per cell, FTCFD_WORKERS=2.
  The estimators and the harness process pool dominate.

The replications per cell keep each call's fixed cost (argument parsing,
starting the process pool, the workers' first replication, summarising and
writing the table) a small share of it, as in the README's runs of hundreds
of replications. Fitted from calls of 1 to 24 replications on a 2-vCPU
Xeon at 2.0 GHz, the fixed cost is 4% of an ``mc_test_selection`` operation
and 6% of an ``mc_bias_variance`` one, against 1% or less at the README's
counts.

``--trace 0`` prints the end-to-end metrics, measured without tracing:

* ``setup_s``: median of five fresh interpreters' cold ``import ftcfd.cli``
  plus the workload's warm-up calls, taken between operations (input
  generation excluded);
* ``op_s_p50``: median seconds per operation. The host is shared and its
  speed drifts by a fifth or more over minutes; between two sets of ten
  seeds the median moved less than the fastest operation did, on every
  workload;
* ``peak_rss_mb``: peak resident set of this process and of its children.

It also prints, ungated, the tail seconds per operation (the highest
percentile with ten operations above it, not below p50), the median and
tail split into ``estimate`` and ``test`` calls for
``analyze_files``, replications per second (a replication is one file for
``analyze_files``), and the failed fraction.

``--trace 1`` runs half (a third for ``mc_bias_variance``) of the time
untraced and the rest with every public ftcfd function wrapped from outside
(tracer.py), and prints the per-layer metrics. Pool workers cannot be traced
from outside, so ``mc_bias_variance`` is traced at FTCFD_WORKERS=1 and
``harness.speedup_2w`` compares its untraced 2-worker and 1-worker phases.

Where each layer should show end to end: ``io.*`` in ``op_s_p50`` of
``analyze_files`` only; ``estimators.*`` in ``op_s_p50`` and ``peak_rss_mb``
of ``mc_bias_variance``, a little in ``analyze_files``; ``basis.*`` and
``mcar.*`` in ``mc_test_selection``, a little in ``analyze_files``, not at
all in ``mc_bias_variance``; ``dgp.*`` in both ``mc_*`` (a few percent);
``harness.*`` in ``mc_bias_variance``; ``core.*`` and ``cli.*`` a little
everywhere.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
An operation fails when a call raises, exits non-zero or writes output that
fails a check; its other calls still run, every failure is counted by error
class with its first message, and the run goes on. At the default seed the
first operation is also compared with reference.json; ``--write-reference``
stores it instead. Scratch files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS threads before anything imports numpy; subprocesses inherit it.
# The run leaves no bytecode caches in the checkout (set-up probes keep
# theirs under WORK, see SetupProbes).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

# workloads imports neither numpy nor ftcfd, so this loads no program code.
from workloads import WORKLOADS, OpFailed, call_cli, compare_reference, error_pair  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_PROBES = 5

# Metric names and units come from BENCHMARK.json. Per-layer names are
# "<module>.<function>.<statistic>" for traced functions, plus the harness.*
# and trace.* numbers computed from the phases.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(values):
    """(q, value) of the highest percentile with >= 10 values above it, q >= 50."""
    for q in range(99, 50, -1):
        v = percentile(values, q)
        if sum(x > v for x in values) >= 10:
            return q, v
    return 50, percentile(values, 50)


class Failures:
    """Failed units of work (operations, probes, warm-up calls) and, per error
    class, how many calls or checks failed and the first message."""

    def __init__(self):
        self.units = 0
        self.by_class = {}

    def add(self, *errors):
        """One failed unit; `errors` are its (error class, message) pairs."""
        self.units += 1
        for cls, message in errors:
            rec = self.by_class.setdefault(cls, {"count": 0, "first": message})
            rec["count"] += 1


class Phase:
    """Operations of one measured stretch."""

    def __init__(self, label):
        self.label = label
        self.walls = []
        self.parts = {}
        self.reps = 0
        self.attempted = 0
        self.probes = 0  # set-up probes taken between operations
        self.pools = 0

    @property
    def p50(self):
        return statistics.median(self.walls)


def environment(workers):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "FTCFD_WORKERS": str(workers),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": commit,  # None outside a git checkout
    }


class SetupProbes:
    """Set-up samples, each a cold ``import ftcfd.cli`` plus the warm-up calls
    in a fresh interpreter (probe.py).

    Every probe reads its bytecode from one cache under WORK
    (PYTHONPYCACHEPREFIX), which an untimed first probe fills, so no sample
    pays for compiling and none depends on which ``__pycache__`` directories
    the checkout or the installed packages happen to hold. The timed probes
    are spread over the measured loop rather than taken in a burst, so that
    each run samples the host's fast and slow stretches alike; the run
    reports their median.
    """

    def __init__(self, wl, failures):
        self.env = dict(os.environ, PYTHONPATH=str(SRC), FTCFD_WORKERS=str(wl.workers),
                        PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.argvs = json.dumps(wl.warmup_argvs())
        self.failures = failures
        self.samples = []
        self.taken = 0  # probes run, the untimed one included
        self._probe()

    def _probe(self):
        self.taken += 1
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), self.argvs],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        lines = proc.stderr.strip().splitlines()
        self.failures.add(("SetupProbeFailed", lines[-1] if lines else f"exit {proc.returncode}"))
        return None

    def take_due(self, progress):
        """Take the timed probes due once `progress` (0 to 1) of the loop has passed."""
        while self.taken - 1 < SETUP_PROBES and self.taken - 1 <= progress * SETUP_PROBES:
            sample = self._probe()
            if sample is not None:
                self.samples.append(sample)

    def median(self):
        self.take_due(1.0)
        return statistics.median(self.samples) if self.samples else None


class PoolCounter:
    """Counts ProcessPoolExecutor constructions while installed."""

    def __init__(self):
        from concurrent.futures import ProcessPoolExecutor

        self.cls = ProcessPoolExecutor
        self.count = 0

    def __enter__(self):
        original = self.original = self.cls.__init__

        def counting_init(pool, *args, **kwargs):
            self.count += 1
            original(pool, *args, **kwargs)

        self.cls.__init__ = counting_init
        return self

    def __exit__(self, *exc):
        self.cls.__init__ = self.original
        return False


def run_phase(wl, label, seconds, next_index, failures, reference, between=None):
    """Closed loop of operations for about `seconds` of wall time.

    `between(progress)` runs between operations; its time does not count.
    """
    phase = Phase(label)
    clock = time.perf_counter
    t0 = clock()
    paused = 0.0
    i = next_index
    while True:
        if between is not None:
            t = clock()
            between((t - t0 - paused) / seconds)
            paused += clock() - t
        typical = statistics.median(phase.walls) if phase.walls else 0.0
        if phase.attempted and clock() - t0 - paused + typical > seconds:
            break
        phase.attempted += 1
        try:
            res = wl.run_op(i)
            errors = wl.check_op(i)
            if not errors and reference is not None and i == 0:
                errors = reference(wl)
        except OpFailed as exc:  # every failed call of the operation is counted
            failures.add(*exc.errors)
        except Exception as exc:  # counted and reported; the run goes on
            failures.add(error_pair(exc))
        else:
            if errors:
                failures.add(*(("OutputCheckFailed", e) for e in errors))
            else:
                phase.walls.append(res["wall"])
                phase.reps += wl.reps_per_op
                for k, v in res["parts"].items():
                    phase.parts.setdefault(k, []).append(v)
        i += 1
    return phase, i


def reference_hook(workload_name, write):
    """Compare (or store) the first operation's summary against reference.json."""

    def check(wl):
        got = json.loads(json.dumps(wl.reference_summary()))
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        if write:
            stored[workload_name] = got
            REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
            return []
        if workload_name not in stored:
            return [f"reference.json has no entry for {workload_name}"]
        return compare_reference(stored[workload_name], got, workload_name)

    return check


def layer_metrics(tracer, traced, untraced, extra):
    """Per-layer values from the traced phase; notes name what was not measured."""
    stats = tracer.by_name()
    wall = sum(traced.walls)
    ops = len(traced.walls)
    values, notes = {}, {}
    for name, _ in PER_LAYER:
        if name in extra:
            values[name], note = extra[name]
            if note:
                notes[name] = note
            continue
        if name == "trace.overhead_frac":
            values[name] = min(traced.walls) / min(untraced.walls) - 1.0
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "init_s":
            span += ".__init__"
        rec = stats.get(span)
        if span not in tracer.wrapped:
            values[name], notes[name] = 0.0, "absent: no such public function"
        elif rec is None:
            values[name], notes[name] = 0.0, "not called in this workload"
        elif stat in ("self_s", "init_s"):
            values[name] = statistics.median(rec["self"])
        elif stat == "share":
            values[name] = sum(rec["self"]) / wall
        elif stat == "mb_per_s":
            values[name] = sum(x or 0 for x in rec["info"]) / sum(rec["self"]) / 1e6
        elif stat == "calls_per_op":
            values[name] = rec["calls"] / ops
    return values, notes


def harness_extras(wl, tracer, own, u1, u2):
    """harness.* numbers as (value, note or None)."""
    extra = {
        "harness.pools_started": (
            own.pools / own.attempted, f"counted at FTCFD_WORKERS={wl.workers}"
        )
    }
    draws = tracer.children_of("harness.", "dgp.draw_sample")
    arrays = tracer.children_of("harness.", "estimators.")
    if draws and arrays:
        extra["harness.result_bytes_per_rep"] = (
            sum(s[4] or 0 for s in arrays) / len(draws),
            "computed from the estimator arrays each replication returns",
        )
    else:
        extra["harness.result_bytes_per_rep"] = (0.0, "no array results in this workload")
    if u2 is not None:
        extra["harness.speedup_2w"] = (
            min(u1.walls) / min(u2.walls), "fastest 1-worker over fastest 2-worker operation"
        )
    else:
        extra["harness.speedup_2w"] = (0.0, "not applicable: the workload runs one worker")
    return extra


def untraced_run(wl, seconds, failures, reference):
    probes = SetupProbes(wl, failures)
    phase, _ = run_phase(wl, "untraced", seconds, 0, failures, reference, probes.take_due)
    setup_s = probes.median()
    phase.probes = probes.taken
    lines = [f"setup_s is the median of {len(probes.samples)} probes"]
    if not phase.walls:
        return [phase], {name: None for name, _ in END_TO_END}, {}, lines
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "op_s_p50": phase.p50,
        "peak_rss_mb": max(rss_self, rss_children) / 1024.0,
    }
    # Reported, not gated: the tails rest on few operations, and the split
    # by command only breaks op_s_p50 down.
    series = {"op": phase.walls}
    commands = sorted({k.split("/")[0] for k in phase.parts})
    for cmd in commands if len(commands) > 1 else ():
        keys = [k for k in phase.parts if k.split("/")[0] == cmd]
        series[cmd] = [sum(v) for v in zip(*(phase.parts[k] for k in keys))]
    for label, vals in series.items():
        q, v = tail(vals)
        lines.append(f"{label}_s_p50 {statistics.median(vals)!r} s")
        lines.append(f"{label}_s_tail {v!r} s (p{q} of {len(vals)})")
    lines.append(f"reps_per_s {phase.reps / sum(phase.walls)!r} 1/s")
    return [phase], metrics, {}, lines


def traced_run(wl, seconds, failures, reference):
    """Untraced phase(s) at the workload's settings, then a traced phase.

    Pool workers are forked and their spans stay in the workers, so a
    multi-worker workload is traced at one worker and also timed untraced
    at one worker, which gives both the tracing overhead and the 2-worker
    speed-up.
    """
    from tracer import Tracer

    multi = wl.workers > 1
    share = seconds / (3 if multi else 2)
    with PoolCounter() as pc:
        own, nxt = run_phase(wl, f"untraced_{wl.workers}w", share, 0, failures, reference)
    own.pools = pc.count
    phases = [own]
    untraced = own
    if multi:
        os.environ["FTCFD_WORKERS"] = "1"
        untraced, nxt = run_phase(wl, "untraced_1w", share, nxt, failures, None)
        phases.append(untraced)
    tracer = Tracer()
    try:
        with tracer:
            traced, _ = run_phase(wl, "traced_1w", share, nxt, failures, None)
    finally:
        os.environ["FTCFD_WORKERS"] = str(wl.workers)
    phases.append(traced)
    leftover = tracer.leftover_wrappers()
    if leftover:
        failures.add(("TracerNotRemoved", ", ".join(leftover)))
    path = Path(wl.work) / "trace.json"
    tracer.dump(path)
    lines = [f"{len(tracer.spans)} spans written to {path}"]
    for name, rec in sorted(tracer.by_name().items(), key=lambda kv: -sum(kv[1]["self"])):
        lines.append(f"span {name}: {rec['calls']} calls, self {sum(rec['self']):.4f} s")
    if not (traced.walls and untraced.walls):
        return phases, {name: None for name, _ in PER_LAYER}, {}, lines
    extra = harness_extras(wl, tracer, own, untraced if multi else None, own if multi else None)
    metrics, notes = layer_metrics(tracer, traced, untraced, extra)
    return phases, metrics, notes, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="toy sizes, for smoke.py")
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default seed's first operation in reference.json")
    args = ap.parse_args()

    if not (SRC / "ftcfd" / "cli.py").is_file():
        print(f"no ftcfd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    os.environ["FTCFD_WORKERS"] = str(cls.workers)

    import ftcfd.cli

    if Path(ftcfd.cli.__file__).resolve().parent.parent != SRC.resolve():
        print(f"ftcfd imported from {ftcfd.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = cls(str(work), args.seed, tiny=args.tiny)
    env = environment(cls.workers)
    wl.prepare()

    failures = Failures()
    attempted = 0
    for argv in wl.warmup_argvs():
        attempted += 1
        try:
            call_cli(argv)
        except Exception as exc:  # counted; the measured loop still runs
            cls_name, message = error_pair(exc)
            failures.add((cls_name, f"warm-up: {message}"))

    reference = None
    if args.seed == DEFAULT_SEED and not args.tiny:
        reference = reference_hook(args.workload, args.write_reference)

    if args.trace:
        phases, metrics, notes, lines = traced_run(wl, args.seconds, failures, reference)
        units = dict(PER_LAYER)
    else:
        phases, metrics, notes, lines = untraced_run(wl, args.seconds, failures, reference)
        units = dict(END_TO_END)
    for p in phases:
        attempted += p.attempted + p.probes
        p50 = f"{p.p50:.4f} s" if p.walls else "n/a"
        lines.append(f"phase {p.label}: {p.attempted} ops, {len(p.walls)} ok, p50 {p50}")
    failed = failures.units
    lines.insert(0, f"env {json.dumps(env, sort_keys=True)}")
    lines.append(f"attempted {attempted} failed {failed} failed_frac {failed / attempted!r}")
    for cls_name, rec in failures.by_class.items():
        lines.append(f"failure {cls_name} x{rec['count']}: {rec['first']}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"metric {name} {value!r} {units[name]}{note}")

    correct = failed == 0 and None not in metrics.values()
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
              "metrics": metrics, "notes": notes, "failures": failures.by_class,
              "op_walls": {p.label: p.walls for p in phases},
              "op_parts": {p.label: p.parts for p in phases}}
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
