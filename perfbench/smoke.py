#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy sizes (about a minute).

    python3 perfbench/smoke.py

Checks that
* every workload prints each BENCHMARK.json metric, with its unit, untraced
  (end-to-end) and traced (per-layer), and that the per-operation call
  counts repeat exactly across two traced runs;
* a traced ``test`` call records a ``basis.select_J`` span under
  ``mcar.classify_and_test``, and no tracer wrapper is left behind;
* a run whose calls fail, or whose output check raises, still ends with a
  result line that counts the failures;
* run.py fails without a result line where the ftcfd sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE = ROOT / ".perfbench_work" / "smoke"


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec, workload, trace, errors):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "2",
                 "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        errors.append(f"{where}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
        return {}
    if proc.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: exit {proc.returncode}, keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        errors.append(f"{where}: not correct: {proc.stdout[-1500:]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        errors.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, unit in want.items():
        m = got.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} printed as {m}, want a number in {unit}")
    return {k: v["value"] for k, v in got.items() if v.get("unit") == "count/op"}


def check_tracer(errors):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer
    from workloads import call_cli

    import ftcfd.cli  # noqa: F401  (loads every ftcfd module the tracer wraps)

    sample = str(SMOKE / "sample.csv")
    call_cli(["simulate", "--dgp", "DepDis", "--n", "40", "--p", "41", "--out", sample])
    tracer = Tracer()
    with tracer:
        call_cli(["test", sample, "--j-max", "11", "--bootstrap", "200",
                  "--out", str(SMOKE / "report.txt")])
    names = [s[0] for s in tracer.spans]
    under = [
        s for s in tracer.spans
        if s[0] == "basis.select_J" and s[3] >= 0
        and tracer.spans[s[3]][0] == "mcar.classify_and_test"
    ]
    if not under:
        errors.append(f"no basis.select_J span under mcar.classify_and_test; spans: {names}")
    leftover = tracer.leftover_wrappers()
    if leftover:
        errors.append(f"tracer wrappers left after uninstall: {leftover}")
    import ftcfd.basis
    import ftcfd.mcar

    if ftcfd.mcar.select_J is not ftcfd.basis.select_J or hasattr(
        ftcfd.mcar.select_J, "_perfbench_wrapper"
    ):
        errors.append("mcar.select_J is not the original basis.select_J after uninstall")


# Runs run.main() in a fresh interpreter after `patch` has broken the
# analyze_files workload in one way.
FAILING_RUN = """
import os, sys
sys.path.insert(0, {here!r})
sys.argv = ["run.py", "--workload", "analyze_files", "--seed", "0", "--seconds", "2",
            "--trace", "0", "--tiny"]
import run, workloads
AF = workloads.AnalyzeFiles
{patch}
sys.exit(run.main())
"""

FAILURES = {
    # every estimate and test of one file fails inside cli.main
    "missing input": """
prepare = AF.prepare
def prepare_then_drop(self):
    prepare(self)
    os.remove(self._in("DepDis"))
AF.prepare = prepare_then_drop
""",
    # the calls succeed and the output check itself raises
    "raising check": """
def check_op(self, i):
    with open(os.path.join(self.work, "no-such-output.csv")) as fh:
        return fh.read()
AF.check_op = check_op
""",
}


def check_failures_counted(errors):
    for what, patch in FAILURES.items():
        code = FAILING_RUN.format(here=str(HERE), patch=patch)
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=170)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            errors.append(f"{what}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
            continue
        if proc.returncode == 0 or result.get("correct") is not False or not result.get("failed"):
            errors.append(f"{what}: exit {proc.returncode}, result {result}")
        if "\nfailure " not in proc.stdout:
            errors.append(f"{what}: no failure class printed: {proc.stdout[-500:]}")


def check_sources_required(errors):
    """A directory with only BENCHMARK.json and perfbench/ must fail cleanly."""
    bare = SMOKE / "bare"
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "analyze_files", "--seed", "1", "--seconds", "2",
                 "--trace", "0", cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append(f"run without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]}")


def main():
    shutil.rmtree(SMOKE, ignore_errors=True)
    (SMOKE / "bare").mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        check_metrics(spec, w["name"], 0, errors)
        first = check_metrics(spec, w["name"], 1, errors)
        second = check_metrics(spec, w["name"], 1, errors)
        if first != second:
            errors.append(f"{w['name']}: call counts differ between traced runs: {first} vs {second}")
    check_tracer(errors)
    check_failures_counted(errors)
    check_sources_required(errors)
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())
