"""Interleaved A/B comparison of one perfbench workload against a git ref.

Checks ``BASE`` out into a temporary ``git worktree``, then runs
``perfbench/run.py --trace 0`` alternately in that worktree and in this
working tree, switching which side goes first on every pair, so slow and
fast stretches of a shared machine land on both sides alike.  Each run
lasts the ``run_seconds`` of ``BENCHMARK.json``.  It prints each side's
median and quartiles of ``norm_wall_s`` (lower is better), every pair's
ratio (working tree over base) and how many pairs the working tree won.
The verdict line applies the gain rule: at least ten pairs, the change
wins at least nine in ten, and its median beats the base's by more than
the base's inter-quartile range; with fewer pairs it says so instead.
The medians of every other end-to-end metric follow.  The worktree is
removed on exit.

Run from the root of the repository (no network access needed)::

    python3 benchmarks/perfbench_ab.py --base HEAD~1 --workload bulk-tcp --pairs 10
    make perfbench-ab BASE=HEAD~1 WORKLOAD=bulk-tcp PAIRS=10

Exits 1 when any run fails its reference check, 0 otherwise (the verdict
is reported, not enforced).  A pair in which a run returned no metrics
is left out of the readings.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The metric the verdict is on; lower is better.
METRIC = "norm_wall_s"
#: Fewest pairs the gain rule accepts.
GAIN_PAIRS = 10


def benchmark_spec() -> Tuple[float, List[str]]:
    """``run_seconds`` and the end-to-end metric names of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    return spec["run_seconds"], [entry["name"] for entry in spec["end_to_end"]]


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``; returns its JSON result line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench_ab: no result from {tree}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(base: List[float], head: List[float]) -> Dict[str, object]:
    """Per-pair ratios, wins and the gain verdict for paired lower-is-better readings."""
    wins = sum(1 for b, h in zip(base, head) if h < b)
    base_q1, base_median, base_q3 = quartiles(base)
    head_median = quartiles(head)[1]
    if len(base) < GAIN_PAIRS:
        verdict = f"too few pairs (the gain rule needs {GAIN_PAIRS})"
    elif wins >= 0.9 * len(base) and base_median - head_median > base_q3 - base_q1:
        verdict = "yes"
    else:
        verdict = "no"
    return {
        "ratios": [h / b for b, h in zip(base, head)],
        "wins": wins,
        "median_change_pct": 100.0 * (head_median - base_median) / base_median,
        "gain": verdict,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref to compare against")
    parser.add_argument("--workload", default="bulk-tcp")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds, metrics = benchmark_spec()

    # readings[side][metric] holds one value per recorded pair.
    readings = {side: {name: [] for name in metrics} for side in ("base", "head")}
    failed = 0
    temp_dir = tempfile.mkdtemp(prefix="perfbench-ab-")
    base_tree = os.path.join(temp_dir, "base")
    try:
        subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", base_tree, args.base],
            cwd=ROOT, check=True,
        )
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            results = {}
            for side in order:
                tree = base_tree if side == "base" else ROOT
                results[side] = run_once(tree, args.workload, args.seed, seconds)
                failed += not results[side]["correct"]
            label = f"pair {pair + 1}/{args.pairs} ({order[0]} first)"
            if not all(result["metrics"] for result in results.values()):
                print(f"{label}: left out, a run returned no metrics", flush=True)
                continue
            for side, result in results.items():
                for name in metrics:
                    readings[side][name].append(result["metrics"][name]["value"])
            print(
                f"{label}: base {readings['base'][METRIC][-1]:.4f}  "
                f"head {readings['head'][METRIC][-1]:.4f}",
                flush=True,
            )
    finally:
        if os.path.isdir(base_tree):
            subprocess.run(
                ["git", "worktree", "remove", "--force", base_tree], cwd=ROOT, check=False
            )
        shutil.rmtree(temp_dir, ignore_errors=True)

    base, head = readings["base"][METRIC], readings["head"][METRIC]
    if not base:
        print("no pair returned metrics", file=sys.stderr)
        return 1
    result = compare(base, head)
    print(f"\n{args.workload} seed {args.seed}, {METRIC} (lower is better), "
          f"{len(base)} pairs of {seconds:g} s runs, base {args.base}")
    for side, values in (("base", base), ("head", head)):
        q1, median, q3 = quartiles(values)
        print(f"{side:>5}: median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  iqr {q3 - q1:.4f}")
    print("ratios head/base: " + " ".join(f"{ratio:.3f}" for ratio in result["ratios"]))
    print(f"head wins {result['wins']}/{len(base)}; median change "
          f"{result['median_change_pct']:+.1f}%; gain: {result['gain']}")
    print("every end-to-end metric, median base -> head:")
    for name in metrics:
        base_median = quartiles(readings["base"][name])[1]
        head_median = quartiles(readings["head"][name])[1]
        change = 100.0 * (head_median - base_median) / base_median if base_median else 0.0
        print(f"  {name:<18} {base_median:12.4f} -> {head_median:12.4f}  ({change:+.1f}%)")
    if failed:
        print(f"{failed} run(s) failed their reference check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
