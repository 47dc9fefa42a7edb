"""Steadiness report: repeat every workload and print each metric's spread.

Usage, from the root of the repository::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --against perfbench/out/steady-before.json

Round ``r`` runs every workload once with seed ``--first-seed + r``; the
workload order is reversed on every other round so that drift in the
machine's load does not land on one workload.  For each end-to-end metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, (q3 - q1) / median, next to the metric's bound from
``BENCHMARK.json``.  ``--against`` compares the medians with an earlier
summary and flags every metric that got worse by more than its bound.
The summary is written as JSON to ``--output``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        return json.load(source)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run; returns its result object (the last stdout line)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    benchmark = _benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in benchmark["workloads"])
    )
    parser.add_argument("--output", default=os.path.join(HERE, "out", "steady.json"))
    parser.add_argument("--against", help="an earlier summary to compare medians with")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    names = args.workloads.split(",")
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    values = {name: {metric: [] for metric in bounds} for name in names}
    failed_runs = {name: 0 for name in names}
    for round_index in range(args.runs):
        order = names if round_index % 2 == 0 else list(reversed(names))
        for name in order:
            result = run_once(name, args.first_seed + round_index, args.seconds)
            if not result["correct"]:
                failed_runs[name] += 1
            for metric, entry in result["metrics"].items():
                values[name][metric].append(entry["value"])
            print(f"round {round_index + 1}/{args.runs} {name}: "
                  + ", ".join(f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()),
                  flush=True)

    summary = {}
    worst = 0
    print(f"\n{'workload':<12} {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name in names:
        summary[name] = {"failed_runs": failed_runs[name]}
        for metric, spec in bounds.items():
            series = values[name][metric]
            if len(series) < 2:
                print(f"{name:<12} {metric:<18} too few successful runs")
                worst = 1
                continue
            stats = summarise(series)
            summary[name][metric] = stats
            bound = spec["bound"]
            if metric == "setup_s":
                verdict = "spread not gated"
            elif stats["spread"] <= bound / 3:
                verdict = "steady"
            elif stats["spread"] <= bound:
                verdict = "within bound, above a third of it"
            else:
                verdict = "TOO NOISY"
                worst = 1
            print(f"{name:<12} {metric:<18} {stats['median']:11.5g} {stats['q1']:11.5g} "
                  f"{stats['q3']:11.5g} {100 * stats['spread']:6.2f}% {100 * bound:5.1f}%  {verdict}")
        if failed_runs[name]:
            print(f"{name}: {failed_runs[name]} run(s) were not correct")
            worst = 1

    if args.against:
        with open(args.against) as source:
            before = json.load(source)
        print("\nmedian change against", args.against)
        for name in names:
            for metric, spec in bounds.items():
                old = before.get(name, {}).get(metric)
                new = summary[name].get(metric)
                if not old or not new:
                    continue
                change = new["median"] / old["median"] - 1.0
                worse = change if spec["better"] == "lower" else -change
                flag = "WORSE THAN BOUND" if worse > spec["bound"] else "ok"
                print(f"{name:<12} {metric:<18} {100 * change:+7.2f}%  {flag}")
                if worse > spec["bound"]:
                    worst = 1

    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w") as out:
        json.dump(summary, out, indent=1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
