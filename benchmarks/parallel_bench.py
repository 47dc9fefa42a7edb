#!/usr/bin/env python
"""Wall-clock legs over the quick presets: parallel speedup, matcher equivalence, instrument overhead.

Each leg merges its section into ``BENCH_parallel.json`` (``--output``),
leaving every other section — including ``fleet`` and ``mitigation``
from the other benchmark scripts — in place:

* ``parallel`` — each experiment at ``jobs=1`` and ``jobs=N``
  (``--jobs``, ``REPRO_JOBS``, or all cores); the top-level
  ``experiments``/``total`` fields.
* ``equivalence`` — each paper artefact among the ids (fig2, fig3a,
  fig3b, table1; all ids when none is one) rendered with the compiled
  classifier and with the linear reference walk; the ``compiled``
  section.
* ``metrics``, ``trace``, ``profile``, ``invariants`` — one overhead leg
  per row of :data:`OVERHEAD_LEGS`: the preset without instruments,
  interleaved with each instrumented variant for ``--runs`` rounds, best
  run of each kept; the ``metrics_overhead``, ``trace_overhead``,
  ``profiling`` and ``invariants`` sections.  The overhead legs time
  fig2 when it is among the ids, else the first id.

Every leg asserts that all of its runs render byte-identical tables:
the parallel executor seeds each point from (base seed, point index),
the classifier charges the linear walk's ``rules_traversed``, and
instruments only observe.  ``--gate`` exits non-zero when an overhead
exceeds its budget in :data:`OVERHEAD_LEGS` (``make bench-trace``,
``bench-profile``, ``bench-invariants`` and CI).

This file is deliberately named ``parallel_bench.py`` (not ``bench_*``)
so the pytest benchmark suite does not collect it.

Usage::

    PYTHONPATH=src python benchmarks/parallel_bench.py            # every leg
    PYTHONPATH=src python benchmarks/parallel_bench.py fig3a -j 4 --legs parallel
    PYTHONPATH=src python benchmarks/parallel_bench.py fig2 --legs trace --gate
"""

from __future__ import annotations

import argparse
import contextlib
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos import ChaosCollector, ChaosConfig
from repro.core.parallel import resolve_jobs
from repro.experiments import RunConfig, runner
from repro.firewall.ruleset import RuleSet
from repro.obs import MetricsCollector, TraceCollector, TraceConfig
from repro.obs.profiling import ProfileCollector, ProfileConfig
from summary import merge_output

#: fig2 quick, jobs=1, on the reference container *before* the tracing
#: subsystem landed — the ``serial_s`` recorded for fig2 in
#: ``BENCH_parallel.json`` at that commit.  The trace budget diffs
#: today's no-tracer time against this; re-record it when moving to
#: different hardware (check out the last pre-tracing commit, time fig2
#: quick at jobs=1 three times, keep the best).
PRE_TRACE_BASELINE_S = {"fig2": 7.585}

#: fig2 quick, jobs=1, on the reference container at the last commit
#: *before* the profiling subsystem landed.  Recorded as the *median*
#: of seven runs of the pre-profiler tree interleaved with
#: profiler-off runs of the current tree (the container's speed drifts
#: ±10-25 % on a minutes scale, so a best-of-N baseline would make
#: every later reading look inflated; the same interleaving measured
#: the genuine off-path cost at 0-1.5 %).  Re-record by checking out
#: the last pre-profiler commit and repeating that interleaved
#: measurement.
PRE_PROFILE_BASELINE_S = {"fig2": 6.868}

#: Paper artefacts the equivalence leg renders when any are among the ids.
ARTEFACTS = ("fig2", "fig3a", "fig3b", "table1")


@dataclass(frozen=True)
class OverheadLeg:
    """One overhead leg: the variants timed against no instrument, and their budgets."""

    #: ``BENCH_parallel.json`` section the leg writes.
    section: str
    #: ``(label, collector factory)`` per instrumented variant.
    variants: Tuple[Tuple[str, Callable[[], Any]], ...]
    #: Reads one variant's collector (and the experiment id) into the JSON.
    summary: Callable[[Any, str], dict]
    #: Recorded no-instrument wall-clock per experiment id, from before
    #: the subsystem landed; diffed into ``baseline_overhead_pct``.
    baseline: Dict[str, float]
    #: ``(result field, limit in %)`` pairs that ``--gate`` enforces.
    budgets: Tuple[Tuple[str, float], ...]


def _metric_samples(collector: MetricsCollector, experiment_id: str) -> dict:
    return {
        "points": len(collector.points),
        "samples": sum(
            len(series.points)
            for point in collector.points
            for snapshot in point.snapshots
            for series in snapshot.series
        ),
    }


def _trace_records(collector: TraceCollector, experiment_id: str) -> dict:
    snapshots = [snapshot for point in collector.points for snapshot in point.snapshots]
    return {
        "traces": sum(s.traces_started for s in snapshots),
        "spans": sum(len(s.spans) for s in snapshots),
        "events": sum(len(s.events) for s in snapshots),
        "incidents": len(collector.incidents()),
    }


def _profile_coverage(collector: ProfileCollector, experiment_id: str) -> dict:
    aggregate = collector.experiment(experiment_id).aggregate()
    return {
        "components": len(aggregate.entries),
        "scopes_entered": sum(entry.calls for entry in aggregate.entries),
        "coverage_pct": round(100.0 * aggregate.coverage(), 1),
    }


def _violations(collector: ChaosCollector, experiment_id: str) -> dict:
    return {"violations": len(collector.violations())}


#: The overhead legs.  Budgets: the absent tracer and the absent profiler
#: within 3 % of their pre-subsystem baselines (the null-object hot-path
#: budget), the fully-on profiler within 35 % and warn-mode invariant
#: monitors within 5 % of the no-instrument run.
OVERHEAD_LEGS: Dict[str, OverheadLeg] = {
    "metrics": OverheadLeg(
        section="metrics_overhead",
        variants=(("on", MetricsCollector),),
        summary=_metric_samples,
        baseline={},
        budgets=(),
    ),
    "trace": OverheadLeg(
        section="trace_overhead",
        variants=(
            ("sampled", lambda: TraceCollector(TraceConfig(sample_every=64, flight=True))),
            ("full", lambda: TraceCollector(TraceConfig(sample_every=1, flight=True))),
        ),
        summary=_trace_records,
        baseline=PRE_TRACE_BASELINE_S,
        budgets=(("baseline_overhead_pct", 3.0),),
    ),
    "profile": OverheadLeg(
        section="profiling",
        variants=(("on", lambda: ProfileCollector(ProfileConfig(stacks=True))),),
        summary=_profile_coverage,
        baseline=PRE_PROFILE_BASELINE_S,
        budgets=(("baseline_overhead_pct", 3.0), ("on_overhead_pct", 35.0)),
    ),
    "invariants": OverheadLeg(
        section="invariants",
        variants=(("warn", lambda: ChaosCollector(ChaosConfig(invariants="warn"))),),
        summary=_violations,
        baseline={},
        budgets=(("warn_overhead_pct", 5.0),),
    ),
}

LEGS = ("parallel", "equivalence") + tuple(OVERHEAD_LEGS)


def _timed_run(experiment_id: str, jobs: int, instruments: tuple = ()) -> Tuple[float, str]:
    """Run one quick preset; return (wall-clock seconds, rendered output)."""
    start = time.perf_counter()
    result = runner.run_experiment_result(
        experiment_id, quick=True, config=RunConfig(jobs=jobs, instruments=instruments)
    )
    return time.perf_counter() - start, runner.render_result(result)


def _assert_same_tables(experiment_id: str, what: str, tables: Dict[str, str]) -> None:
    if len(set(tables.values())) != 1:
        raise AssertionError(
            f"{experiment_id}: {' / '.join(tables)} rendered different tables ({what})"
        )


def _pct(seconds: float, reference: float) -> float:
    return round(100.0 * (seconds - reference) / reference, 1) if reference else 0.0


def _parallel(ids: List[str], jobs: int) -> dict:
    """Time each quick preset at jobs=1 and jobs=N."""
    experiments = {}
    for experiment_id in ids:
        print(f"== {experiment_id}: jobs=1 vs jobs={jobs} ==", file=sys.stderr)
        serial_s, serial_out = _timed_run(experiment_id, 1)
        parallel_s, parallel_out = serial_s, serial_out
        if jobs > 1:
            parallel_s, parallel_out = _timed_run(experiment_id, jobs)
        _assert_same_tables(
            experiment_id, "sweep parallelism", {"jobs=1": serial_out, f"jobs={jobs}": parallel_out}
        )
        experiments[experiment_id] = {
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(serial_s / parallel_s, 2) if parallel_s else 0.0,
        }
        print(
            f"   {serial_s:.1f}s serial, {parallel_s:.1f}s at jobs={jobs} "
            f"({experiments[experiment_id]['speedup']}x)",
            file=sys.stderr,
        )
    serial = sum(entry["serial_s"] for entry in experiments.values())
    parallel = sum(entry["parallel_s"] for entry in experiments.values())
    return {
        "outputs_identical": True,
        "experiments": experiments,
        "total": {
            "serial_s": round(serial, 3),
            "parallel_s": round(parallel, 3),
            "speedup": round(serial / parallel, 2) if parallel else 0.0,
        },
    }


@contextlib.contextmanager
def _linear_matcher():
    """Answer every uncached rule-set lookup with the linear reference walk.

    Patches ``RuleSet._evaluate``/``_evaluate_encrypted`` on the class;
    sweep workers are forked, so they inherit the patch.
    """
    evaluate, evaluate_encrypted = RuleSet._evaluate, RuleSet._evaluate_encrypted

    def cached_or(ruleset: RuleSet, cache_key, walk: Callable[[], Any]):
        cache = ruleset._flow_cache
        cached = cache.pop(cache_key, None)
        if cached is not None:
            cache[cache_key] = cached  # re-insert at the MRU end
            ruleset.last_engine = "cache"
            return cached
        result = walk()
        ruleset.last_engine = "linear"
        ruleset._cache_store(cache_key, result)
        return result

    RuleSet._evaluate = lambda self, packet, direction: cached_or(
        self, (packet.flow(), direction), lambda: self.evaluate_linear(packet, direction)
    )
    RuleSet._evaluate_encrypted = lambda self, spi: cached_or(
        self, ("spi", spi), lambda: self.evaluate_encrypted_linear(spi)
    )
    try:
        yield
    finally:
        RuleSet._evaluate, RuleSet._evaluate_encrypted = evaluate, evaluate_encrypted


def _equivalence(ids: List[str], jobs: int) -> dict:
    """Render each quick preset with the compiled classifier and the linear walk."""
    results = {}
    for experiment_id in ids:
        print(f"== {experiment_id}: compiled vs linear matcher ==", file=sys.stderr)
        compiled_s, compiled_out = _timed_run(experiment_id, jobs)
        with _linear_matcher():
            linear_s, linear_out = _timed_run(experiment_id, jobs)
        _assert_same_tables(
            experiment_id, "rule matching", {"compiled": compiled_out, "linear": linear_out}
        )
        results[experiment_id] = {
            "compiled_s": round(compiled_s, 3),
            "linear_s": round(linear_s, 3),
            "speedup": round(linear_s / compiled_s, 2) if compiled_s else 0.0,
            "outputs_identical": True,
        }
        print(
            f"   {linear_s:.1f}s linear, {compiled_s:.1f}s compiled "
            f"({results[experiment_id]['speedup']}x), outputs identical",
            file=sys.stderr,
        )
    return {"compiled": {"equivalence": results}}


def _overhead(kind: str, experiment_id: str, runs: int) -> dict:
    """Time one quick preset without instruments and with each variant of ``kind``.

    The runs are interleaved (off, variant, ..., off, variant, ...) for
    ``runs`` rounds and the best of each kept, so every variant sees the
    same drift in shared-machine speed.
    """
    leg = OVERHEAD_LEGS[kind]
    variants = (("off", None),) + leg.variants
    print(
        f"== {experiment_id}: {kind} {' vs '.join(label for label, _ in variants)}, "
        f"interleaved best of {runs} ==",
        file=sys.stderr,
    )
    best: Dict[str, float] = {}
    tables: Dict[str, str] = {}
    summaries: Dict[str, dict] = {}
    for _ in range(runs):
        for label, make in variants:
            collector = make() if make is not None else None
            elapsed, tables[label] = _timed_run(
                experiment_id, 1, (collector,) if collector is not None else ()
            )
            best[label] = min(elapsed, best.get(label, elapsed))
            if collector is not None:
                # Keep only the summary: a full trace holds ~600k spans,
                # whose GC traversal would slow the runs that follow.
                summaries[label] = leg.summary(collector, experiment_id)
    _assert_same_tables(experiment_id, kind, tables)
    off = best["off"]
    result: Dict[str, Any] = {
        "experiment": experiment_id,
        "runs_per_mode": runs,
        "outputs_identical": True,
        "off_s": round(off, 3),
    }
    print(f"   off: {off:.2f}s", file=sys.stderr)
    baseline = leg.baseline.get(experiment_id)
    if baseline is not None:
        result["baseline_serial_s"] = baseline
        result["baseline_overhead_pct"] = _pct(off, baseline)
        print(
            f"   off vs recorded baseline {baseline}s: {result['baseline_overhead_pct']:+}%",
            file=sys.stderr,
        )
    for label, _ in leg.variants:
        result[f"{label}_s"] = round(best[label], 3)
        result[f"{label}_overhead_pct"] = _pct(best[label], off)
        result[f"{label}_summary"] = summaries[label]
        print(
            f"   {label}: {best[label]:.2f}s ({result[f'{label}_overhead_pct']:+}%) "
            f"{result[f'{label}_summary']}",
            file=sys.stderr,
        )
    return result


def _check_budgets(kind: str, result: dict) -> int:
    """Print each budget of ``kind`` against ``result``; 1 when any is exceeded."""
    failed = 0
    for name, limit in OVERHEAD_LEGS[kind].budgets:
        pct = result.get(name)
        if pct is None:
            print(
                f"ERROR: {kind} {name} needs a recorded baseline for {result['experiment']}",
                file=sys.stderr,
            )
            failed = 1
        elif pct > limit:
            print(f"ERROR: {kind} {name} {pct}% exceeds the {limit}% budget", file=sys.stderr)
            failed = 1
        else:
            print(f"{kind} {name} {pct}% within the {limit}% budget", file=sys.stderr)
    return failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids (default: every quick preset)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for the parallel and equivalence legs "
        "(default: REPRO_JOBS or the machine's core count)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default="BENCH_parallel.json",
        help="JSON summary each leg merges its section into (default: %(default)s)",
    )
    parser.add_argument(
        "--legs",
        nargs="+",
        choices=LEGS,
        default=list(LEGS),
        metavar="LEG",
        help=f"legs to run, in order (default: all of {', '.join(LEGS)})",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=3,
        metavar="N",
        help="interleaved rounds per overhead leg; the best run of each "
        "variant is kept (default: %(default)s)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero when an overhead leg exceeds one of its budgets",
    )
    args = parser.parse_args(argv)

    jobs = resolve_jobs(args.jobs)
    ids = args.experiments or runner.experiment_ids()
    unknown = [i for i in ids if i not in runner.experiment_ids()]
    if unknown:
        parser.error(f"unknown experiment id(s): {', '.join(unknown)}")
    overhead_id = "fig2" if "fig2" in ids else ids[0]
    header = {
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "preset": "quick",
    }
    status = 0
    for leg in args.legs:
        if leg == "parallel":
            sections = _parallel(ids, jobs)
        elif leg == "equivalence":
            sections = _equivalence([i for i in ids if i in ARTEFACTS] or ids, jobs)
        else:
            result = _overhead(leg, overhead_id, args.runs)
            sections = {OVERHEAD_LEGS[leg].section: result}
            if args.gate:
                status |= _check_budgets(leg, result)
        merge_output(args.output, {**header, **sections})
        print(f"merged the {leg} leg into {args.output}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
