"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload bulk-tcp --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no span instrumentation;
their host seconds are rescaled to a reference machine speed sampled while
the workload runs (see ``speed.py``).
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer ledger (see ``spans.py``).  Every iteration's simulated outcome
is checked against the first iteration's, against the recorded reference
for seeds in ``reference.json``, and against the paper's shapes.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any iteration failed.

``--record`` rewrites the workload's entries of ``reference.json`` from
one traced iteration per reference seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOAD_NAMES = ("bulk-tcp", "flood-64b", "http-vpg", "sweep-quick")

#: The default seed and the held-out seed the reference outcomes cover.
REFERENCE_SEEDS = (1, 7)

#: Iterations run even when one takes longer than ``--seconds``.
MIN_ITERATIONS = 3
#: Untraced/traced pairs in a traced run.
MIN_PAIRS = 1
#: Fresh interpreters timed importing ``repro``; the median is reported.
IMPORT_PROBES = 5
#: Speed chunks each import probe times before and after its import.
IMPORT_PROBE_CHUNKS = 20

#: Public counters that are part of the checked outcome.
OUTCOME_COUNTS = ("sim.events", "net.frames", "nic.rules_evaluated")
#: Counts only a traced iteration has; also part of the checked outcome.
TRACED_OUTCOME_COUNTS = ("firewall.rules_charged", "crypto.blocks")

clock = time.perf_counter


def fingerprint(seed: int) -> dict:
    """Where and from what the numbers were measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": [round(value, 2) for value in os.getloadavg()],
        "seed": seed,
    }


def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(git, name)
        if os.path.exists(path):
            with open(path) as target:
                return target.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            for line in packed:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_seconds() -> tuple:
    """Median host seconds a fresh interpreter takes to import the workloads.

    Returns the raw median and the median at reference speed: each probe
    times speed chunks just before and just after its import.
    """
    probe = (
        "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; import speed; "
        "before = speed.time_chunks({chunks}); t = time.perf_counter(); "
        "import workloads; took = time.perf_counter() - t; "
        "around = before + speed.time_chunks({chunks}); print(took, sum(around) / len(around))"
    ).format(src=SRC, here=HERE, chunks=IMPORT_PROBE_CHUNKS)
    raw, normalised = [], []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120
        )
        took, mean = (float(v) for v in done.stdout.strip().splitlines()[-1].split())
        raw.append(took)
        normalised.append(speed.normalise(took, 0.0, mean))
    return statistics.median(raw), statistics.median(normalised)


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest finished child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# Iterations
# ---------------------------------------------------------------------------


class Runner:
    """Runs iterations of one workload and keeps what they returned."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.function = workloads.WORKLOADS[name]
        self.samples = []  # (traced, Sample)
        self.errors = []  # tracebacks of iterations that raised
        self.recorder = None

    def iterate(self, traced: bool, sampled: bool = False) -> float:
        """Run one iteration, timing speed chunks if ``sampled``; returns its host seconds."""
        recorder = None
        installation = None
        if traced:
            first = self.recorder is None
            if first:
                self.recorder = spans.SpanRecorder()
            recorder = self.recorder
            recorder.keep_spans = first  # raw spans of the first traced iteration only
            recorder.reset()
            installation = spans.install(recorder)
        gc.collect()
        started = clock()
        try:
            sampler = speed.SpeedSampler() if sampled else None
            sample = self.function(self.seed, recorder, OUT, sampler)
            if traced and sample.trace is None:
                sample.trace = recorder.aggregate()
            self.samples.append((traced, sample))
        except Exception:
            self.errors.append(traceback.format_exc())
        finally:
            if installation is not None:
                installation.undo()
        return clock() - started

    def run(self, seconds: float, trace_mode: bool) -> None:
        started = clock()
        if not trace_mode:
            times = []
            while len(times) < MIN_ITERATIONS or clock() - started + statistics.median(times) <= seconds:
                times.append(self.iterate(traced=False, sampled=True))
            return
        pairs = []
        while len(pairs) < MIN_PAIRS or clock() - started + statistics.median(pairs) <= seconds:
            pairs.append(self.iterate(traced=False) + self.iterate(traced=True))

    def untraced(self):
        return [sample for traced, sample in self.samples if not traced]

    def traced(self):
        return [sample for traced, sample in self.samples if traced]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def checked_outcome(sample) -> dict:
    """The simulated outcome plus the deterministic counts checked with it."""
    outcome = dict(sample.outcome)
    for key in OUTCOME_COUNTS:
        outcome[key] = sample.counts[key]
    if sample.trace is not None:
        for key in TRACED_OUTCOME_COUNTS:
            outcome[key] = sample.trace["counts"].get(key, 0)
    return outcome


def load_reference() -> dict:
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as source:
        return json.load(source)


def check(runner: Runner) -> list:
    """One list of failure lines per iteration (empty when it passed)."""
    reference = load_reference().get(runner.name, {}).get(str(runner.seed))
    first = checked_outcome(runner.samples[0][1])
    first_trace = next((s.trace for s in runner.traced()), None)
    results = []
    for _traced, sample in runner.samples:
        failures = list(sample.problems)
        outcome = checked_outcome(sample)
        failures += _differences(outcome, first, "first iteration")
        if sample.counts != runner.samples[0][1].counts:
            failures.append("public work counters differ from the first iteration")
        if sample.trace is not None and (
            sample.trace["counts"] != first_trace["counts"]
            or sample.trace["calls"] != first_trace["calls"]
        ):
            failures.append("traced counts differ from the first traced iteration")
        if reference is not None:
            failures += _differences(outcome, reference, "reference")
            missing = sorted(set(outcome) - set(reference))
            if missing:
                failures.append(f"reference has no value for {', '.join(missing)}")
        results.append(failures)
    return results


def _differences(outcome: dict, expected: dict, against: str) -> list:
    return [
        f"{key}: {outcome[key]!r} != {against} {expected[key]!r}"
        for key in sorted(set(outcome) & set(expected))
        if outcome[key] != expected[key]
    ]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def at_reference_speed(sample) -> tuple:
    """``(wall_s, setup_s, mean chunk)`` of a sampled iteration, at reference speed.

    Chunks inside the measured intervals are taken out of ``wall_s`` and
    the rest out of ``setup_s``; chunks of sweep workers ran side by side,
    so their time is divided by the number of workers.
    """
    measured = speed.inside(sample.chunks, sample.intervals)
    mean = speed.mean_chunk(measured) or speed.mean_chunk(sample.chunks)
    if mean is None:
        raise RuntimeError("no speed chunk was timed; the iteration is too short to sample")
    total = sum(end - start for start, end in sample.chunks)
    in_wall = sum(end - start for start, end in measured)
    return (
        speed.normalise(sample.wall_s, in_wall / sample.jobs, mean),
        speed.normalise(sample.setup_s, (total - in_wall) / sample.jobs, mean),
        mean,
    )


def end_to_end(runner: Runner, import_s: tuple) -> tuple:
    """The declared end-to-end metrics and the raw figures printed beside them."""
    samples = runner.untraced()
    scaled = [at_reference_speed(s) for s in samples]
    frames = samples[0].counts["net.frames"]
    raw_import_s, norm_import_s = import_s
    metrics = {
        "norm_wall_s": (statistics.median(wall for wall, _setup, _mean in scaled), "s"),
        "norm_frames_per_s": (
            statistics.median(frames / wall for wall, _setup, _mean in scaled), "frames/s",
        ),
        "setup_s": (norm_import_s + statistics.median(setup for _wall, setup, _mean in scaled), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    raw = {
        "wall_s": (statistics.median(s.wall_s for s in samples), "s"),
        "frames_per_s": (statistics.median(frames / s.wall_s for s in samples), "frames/s"),
        "raw_setup_s": (raw_import_s + statistics.median(s.setup_s for s in samples), "s"),
        "slowdown": (
            statistics.median(mean for _wall, _setup, mean in scaled) / speed.REFERENCE_CHUNK_S,
            "ratio",
        ),
        "speed_chunks": (sum(len(s.chunks) for s in samples), "count"),
    }
    return metrics, raw


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(runner: Runner) -> dict:
    untraced, traced = runner.untraced(), runner.traced()
    counts = traced[0].counts
    aggregate = traced[0].trace
    calls, traced_counts = aggregate["calls"], aggregate["counts"]

    def self_ns(layer):
        return statistics.median(spans.layer_totals(s.trace["self_ns"])[layer] for s in traced)

    def count(key):
        return counts.get(key, 0)

    def calls_of(*names):
        return sum(calls.get(name, 0) for name in names)

    frames = count("net.frames")
    evals = calls_of("RuleSet.evaluate", "RuleSet.evaluate_encrypted")
    segments_sent = traced_counts.get("host.tcp.segments_sent", 0)
    segments = calls_of("TcpManager.segment_arrived") + segments_sent
    blocks = traced_counts.get("crypto.blocks", 0)
    sim_total = sum(s.trace["total_ns"].get("Simulator.run", 0) for s in traced)
    sim_self = sum(s.trace["self_ns"].get("Simulator.run", 0) for s in traced)
    untraced_wall = statistics.median(s.wall_s for s in untraced)
    traced_wall = statistics.median(s.wall_s for s in traced)
    point_s = [value for s in untraced for value in s.point_s]
    stats = untraced[0].sweep_stats
    metrics = {
        "sim.events": (count("sim.events"), "count"),
        "sim.events_per_frame": (_ratio(count("sim.events"), frames), "ratio"),
        "sim.events_cancelled": (count("sim.events_cancelled"), "count"),
        "sim.self_s": (self_ns("sim") / 1e9, "s"),
        "net.frames": (frames, "count"),
        "net.queue_drops": (count("net.queue_drops"), "count"),
        "net.size_calls_per_frame": (_ratio(traced_counts.get("net.size_calls", 0), frames), "ratio"),
        "net.self_s": (self_ns("net") / 1e9, "s"),
        "nic.frames_in": (count("nic.frames_in"), "count"),
        "nic.ring_drop_ratio": (_ratio(count("nic.ring_drops"), count("nic.ring_offered")), "ratio"),
        "nic.busy_vs": (count("nic.busy_vs"), "s"),
        "nic.self_s": (self_ns("nic") / 1e9, "s"),
        "firewall.evals": (evals, "count"),
        "firewall.cache_hit_ratio": (
            _ratio(evals - count("firewall.classifier_lookups"), evals), "ratio",
        ),
        "firewall.cache_evictions": (count("firewall.cache_evictions"), "count"),
        "firewall.rules_charged": (traced_counts.get("firewall.rules_charged", 0), "count"),
        "firewall.self_ns_per_eval": (_ratio(self_ns("firewall"), evals), "ns"),
        "host.ip.packets": (calls_of("IpLayer.packet_arrived", "IpLayer.send_packet"), "count"),
        "host.tcp.segments": (segments, "count"),
        "host.tcp.connections": (aggregate["tcp_connections"], "count"),
        "host.tcp.retransmit_ratio": (_ratio(aggregate["tcp_retransmitted"], segments_sent), "ratio"),
        "host.ip.self_s": (self_ns("host.ip") / 1e9, "s"),
        "host.tcp.self_s": (self_ns("host.tcp") / 1e9, "s"),
        "host.tcp.self_ns_per_segment": (_ratio(self_ns("host.tcp"), segments), "ns"),
        "crypto.seals": (calls_of("VpgContext.seal"), "count"),
        "crypto.opens": (calls_of("VpgContext.open"), "count"),
        "crypto.blocks": (blocks, "count"),
        "crypto.self_ns_per_block": (_ratio(self_ns("crypto"), blocks), "ns"),
        "apps.iperf_bytes": (count("apps.iperf_bytes"), "bytes"),
        "apps.flood_packets": (count("apps.flood_packets"), "count"),
        "apps.http_fetches": (count("apps.http_fetches"), "count"),
        "apps.http_failures": (count("apps.http_failures"), "count"),
        "apps.self_s": (self_ns("apps") / 1e9, "s"),
        "policy.install_s": (statistics.median(s.policy_s for s in untraced), "s"),
        "core.points": (len(untraced[0].point_s), "count"),
        "core.retries": (stats.get("retries", 0), "count"),
        "core.failures": (stats.get("failures", 0), "count"),
        "core.worker_busy_pct": (
            statistics.median(100.0 * sum(s.point_s) / (s.jobs * s.wall_s) for s in untraced), "%",
        ),
        "core.point_s.p50": (statistics.median(point_s), "s"),
        "trace.overhead_pct": (100.0 * (traced_wall / untraced_wall - 1.0), "%"),
        "trace.coverage_pct": (100.0 * (1.0 - _ratio(sim_self, sim_total)), "%"),
    }
    return metrics


#: Layer -> (unit of work, how to read it from the per-layer metrics).
LAYER_UNITS = {
    "sim": ("events", "sim.events"),
    "net": ("frames", "net.frames"),
    "nic": ("frames in", "nic.frames_in"),
    "firewall": ("evals", "firewall.evals"),
    "host.ip": ("packets", "host.ip.packets"),
    "host.tcp": ("segments", "host.tcp.segments"),
    "crypto": ("blocks", "crypto.blocks"),
}


def layer_report(runner: Runner, metrics: dict) -> list:
    """The per-layer split as text lines, with flags for unattributed work."""
    traced = runner.traced()
    totals = {
        layer: statistics.median(spans.layer_totals(s.trace["self_ns"])[layer] for s in traced)
        for layer in spans.LAYERS
    }
    everything = sum(totals.values()) or 1
    calls = traced[0].trace["calls"]
    lines = [f"{'layer':<10} {'self s':>9} {'share':>7} {'work':>12} {'unit':<10} {'ns/unit':>9}"]
    for layer in spans.LAYERS:
        unit, key = LAYER_UNITS.get(layer, ("calls", None))
        if key is not None:
            work = metrics[key][0]
        else:
            work = sum(n for name, n in calls.items() if spans.LAYER_OF[name] == layer)
        per_unit = f"{totals[layer] / work:9.0f}" if work else f"{'-':>9}"
        lines.append(
            f"{layer:<10} {totals[layer] / 1e9:9.4f} {100 * totals[layer] / everything:6.1f}% "
            f"{work:12.0f} {unit:<10} {per_unit}"
        )
        if work and totals[layer] == 0:
            lines.append(f"WARNING: {layer} did {work:.0f} {unit} of work but shows no self time")
    lines.append(
        "ratios: "
        f"sim.events_per_frame = {metrics['sim.events'][0]:.0f} events / {metrics['net.frames'][0]:.0f} frames; "
        f"firewall.cache_hit_ratio over {metrics['firewall.evals'][0]:.0f} evals; "
        f"nic.ring_drop_ratio over {runner.traced()[0].counts.get('nic.ring_offered', 0):.0f} frames offered; "
        f"host.tcp.retransmit_ratio over "
        f"{traced[0].trace['counts'].get('host.tcp.segments_sent', 0):.0f} segments sent; "
        f"core.worker_busy_pct over {traced[0].jobs} worker(s) x wall_s"
    )
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def record(name: str) -> None:
    """Rewrite ``name``'s reference outcomes from one traced iteration per seed."""
    reference = load_reference()
    entries = {}
    for seed in REFERENCE_SEEDS:
        runner = Runner(name, seed)
        runner.iterate(traced=True)
        if runner.errors:
            raise SystemExit(runner.errors[0])
        entries[str(seed)] = checked_outcome(runner.samples[0][1])
    reference[name] = entries
    with open(REFERENCE, "w") as out:
        json.dump(reference, out, indent=1, sort_keys=True)
        out.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    machine = fingerprint(args.seed)
    if args.record:
        record(args.workload)
        return 0
    os.makedirs(OUT, exist_ok=True)
    import_s = import_seconds() if not args.trace else None
    runner = Runner(args.workload, args.seed)
    runner.run(args.seconds, trace_mode=bool(args.trace))

    for error in runner.errors:
        print(error, file=sys.stderr)
    results = check(runner) if runner.samples else []
    failed = sum(1 for failures in results if failures) + len(runner.errors)
    attempted = len(results) + len(runner.errors)
    print(f"# {args.workload} " + json.dumps(machine))
    for index, failures in enumerate(results):
        for failure in failures:
            print(f"# FAIL iteration {index}: {failure}")

    metrics = {}
    lines = []
    if runner.untraced() and (not args.trace or runner.traced()):
        if args.trace:
            metrics = per_layer(runner)
            lines = layer_report(runner, metrics)
            kept = runner.recorder.spans
            if kept:
                path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
                spans.write_spans(path, kept)
                lines.append(f"{len(kept)} spans written to {os.path.relpath(path, ROOT)}")
        else:
            metrics, raw = end_to_end(runner, import_s)
            lines.extend(f"{name} = {value:.6g} {unit} (raw host figure)" for name, (value, unit) in raw.items())
            paper = runner.untraced()[0].paper_err_pct
            lines.append(f"fail_ratio = {failed / attempted:.4f} ratio ({failed}/{attempted} iterations)")
            if paper is not None:
                lines.append(f"paper_err_pct = {paper:.4f} % (Fig 2 depth-64 points)")
            else:
                lines.append("paper_err_pct: no paper point for this workload (model unvalidated here)")
    for line in lines:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")

    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as out:
        json.dump(
            {
                "fingerprint": machine,
                "attempted": attempted,
                "failed": failed,
                "iterations": [
                    {
                        "traced": traced,
                        "wall_s": s.wall_s,
                        "setup_s": s.setup_s,
                        "mean_chunk_s": speed.mean_chunk(s.chunks),
                    }
                    for traced, s in runner.samples
                ],
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            },
            out,
            indent=1,
        )
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import spans  # noqa: E402  (needs the path above)
    import speed  # noqa: E402
    import workloads  # noqa: E402

    sys.exit(main())
