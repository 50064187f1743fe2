"""Summarise interleaved parent/change benchmark runs as one BENCH_<pr>.json entry.

Each ``perfbench/run.py`` run writes ``.perfbench_work/<workload>/result.json``
and the next run of that workload deletes it, so copy each one aside after
its run, one directory per side, alternating which side runs first:

    for seed in 1 2 3; do
      for side in parent change; do   # swap the order on every other seed
        (cd "$side" && python3 perfbench/run.py --workload mc_test_selection --seed "$seed")
        cp "$side/.perfbench_work/mc_test_selection/result.json" \\
           "runs/$side/mc_test_selection-$seed.json"
      done
    done
    python tools/bench_entry.py --parent runs/parent --change runs/change \\
        --previous BENCH_<last>.json --durations tier1.txt --out BENCH_<pr>.json

where tier1.txt is the saved output of the change's Tier-1 run with
``--durations=5`` (any count of at least five).

For each workload and side the entry holds the number of runs, their
seeds, failed and attempted operations, the median and quartiles of each
end-to-end metric of BENCHMARK.json, and the distinct environments the runs
recorded (python, numpy, BLAS, thread settings, nproc, git commit). Per
workload it adds the change/parent ratio of each median. Host speed drifts
between sessions, so entries are compared as ratios within one session.
With ``--durations`` the entry also holds the five slowest Tier-1 test
phases, with their seconds.

The script only reads its input files; it is not a gate. It exits 0, or 2
when the ``--durations`` file holds no durations report.
It prints a flag where a change median is worse than the ``--previous``
entry's change median by more than a factor of 1.5.
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
FLAG_FACTOR = 1.5
# One line of pytest's --durations report: "8.04s call     tests/x.py::test_y".
DURATION = re.compile(r"(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S.*)$")


def end_to_end() -> dict:
    """BENCHMARK.json's end-to-end metrics: name -> "lower" or "higher", the better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def side_summary(results: list[dict], metrics) -> dict:
    """Runs, seeds, failures, per-metric quartiles and environments of one side."""
    summary = {
        "runs": len(results),
        "seeds": sorted(r["seed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name in metrics:
        values = [r["metrics"][name] for r in results if r["metrics"].get(name) is not None]
        if values:
            q1, median, q3 = (percentile(values, q) for q in (25, 50, 75))
            summary["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)
            }
    envs = {json.dumps(r["env"], sort_keys=True) for r in results}
    summary["env"] = [json.loads(e) for e in sorted(envs)]
    return summary


def read_results(directory) -> dict:
    """Untraced result.json copies in `directory`, grouped by workload."""
    by_workload = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if not result["trace"]:
            by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def build_entry(parent_dir, change_dir, metrics, previous=None) -> dict:
    """The entry's per-workload summaries, ratios and flags."""
    runs = {side: read_results(d) for side, d in zip(SIDES, (parent_dir, change_dir))}
    workloads = {}
    for name in sorted(set(runs["parent"]) | set(runs["change"])):
        row = {side: side_summary(runs[side].get(name, []), metrics) for side in SIDES}
        medians = {side: row[side]["metrics"] for side in SIDES}
        row["ratio"] = {
            m: medians["change"][m]["median"] / medians["parent"][m]["median"]
            for m in metrics
            if m in medians["change"] and medians["parent"].get(m, {}).get("median")
        }
        row["flags"] = flags(name, medians["change"], previous, metrics)
        workloads[name] = row
    return {"workloads": workloads}


def slowest_tests(text: str, top: int = 5) -> list[dict]:
    """The `top` slowest phases of a pytest output's --durations report, slowest first."""
    lines = iter(text.splitlines())
    for line in lines:
        if re.search(r" slowest( \d+)? durations ", line):
            break
    rows = []
    for line in lines:
        match = DURATION.match(line)
        if not match:
            break
        rows.append({"seconds": float(match[1]), "phase": match[2], "test": match[3]})
    return sorted(rows, key=lambda row: -row["seconds"])[:top]


def flags(workload, medians, previous, metrics) -> list[str]:
    """Metrics whose change median is worse than the previous entry's by FLAG_FACTOR."""
    if previous is None:
        return []
    before = previous["workloads"].get(workload, {}).get("change", {}).get("metrics", {})
    out = []
    for name, stats in medians.items():
        old = before.get(name, {}).get("median")
        if not old:
            continue
        ratio = stats["median"] / old
        if ratio > FLAG_FACTOR if metrics[name] == "lower" else ratio < 1 / FLAG_FACTOR:
            out.append(f"{name}: median {stats['median']!r} is {ratio:.2f}x the previous {old!r}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="directory of the parent's result.json copies")
    ap.add_argument("--change", required=True, help="directory of the change's result.json copies")
    ap.add_argument("--previous", help="the last BENCH_<pr>.json entry, to flag outliers against")
    ap.add_argument("--durations", help="saved output of a Tier-1 run with --durations=5")
    ap.add_argument("--out", required=True, help="the BENCH_<pr>.json file to write")
    args = ap.parse_args(argv)
    previous = json.loads(Path(args.previous).read_text()) if args.previous else None
    entry = build_entry(args.parent, args.change, end_to_end(), previous)
    entry["previous"] = Path(args.previous).name if args.previous else None
    if args.durations:
        entry["tier1_durations"] = slowest_tests(Path(args.durations).read_text())
        if not entry["tier1_durations"]:
            ap.error(f"{args.durations} holds no --durations report")
    Path(args.out).write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    for name, row in entry["workloads"].items():
        ratios = ", ".join(f"{m} {r:.3f}" for m, r in row["ratio"].items())
        runs = f"{row['parent']['runs']} / {row['change']['runs']} runs"
        print(f"{name}: {runs}; change/parent {ratios}")
        for line in row["flags"]:
            print(f"FLAG {name} {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
