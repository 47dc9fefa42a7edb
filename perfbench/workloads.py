"""The benchmark's four workloads, built through the public ``repro`` API.

Each workload function runs one iteration and returns a :class:`Sample`:
host seconds spent setting up (everything before the first simulated
event) and measuring (the simulated run), the exact simulated outcome that
is checked against the recorded reference, the program's own public work
counters, and plausibility failures.  Why each workload exists is in
``README.md`` next to this file.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.apps.http_load import HttpLoadClient
from repro.apps.httpd import HttpServer
from repro.apps.iperf import IperfClient, IperfServer
from repro.core.metrics import is_denial_of_service
from repro.core.methodology import VPG_MSS, FloodToleranceValidator, MeasurementSettings
from repro.core.parallel import SweepExecutor, SweepPointSpec
from repro.core.testbed import DeviceKind, Testbed
from repro.experiments import RunConfig, fig2_bandwidth
from repro.experiments.presets import QUICK
from repro.firewall.builders import vpg_ruleset
from repro.firewall.rules import Action, PortRange, VpgRule
from repro.net.packet import IpProtocol

import spans
from speed import SpeedSampler

clock = time.perf_counter

#: bulk-tcp: Fig 2's costliest point, the allow rule at depth 64.
BULK_DEPTH = 64
BULK_WINDOW_S = 1.0
BULK_DEVICES = (("efw", DeviceKind.EFW), ("adf", DeviceKind.ADF), ("iptables", DeviceKind.IPTABLES))

#: flood-64b: Fig 3b's denied flood on the ADF at depth 32.  The ADF's
#: minimum DoS rate there is ~10.5 kpps and 64-byte wire rate is ~149 kpps.
FLOOD_DEPTH = 32
FLOOD_RATE_PPS = 30000.0
FLOOD_WINDOW_S = 0.5

#: http-vpg: Table 1's 4-VPG column.
HTTP_VPGS = 4
HTTP_WINDOW_S = 1.0
HTTP_PAGE_BYTES = 10240
HTTP_PORT = 80

#: sweep-quick: the Fig 2 quick grid on two worker processes.
SWEEP_JOBS = 2
SWEEP_POINTS = 17


@dataclass
class Sample:
    """One iteration of a workload."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    #: Host seconds spent defining, pushing and first compiling policy.
    policy_s: float = 0.0
    #: Exact simulated outcome (reference-checked).
    outcome: Dict[str, object] = field(default_factory=dict)
    #: Public work counters summed over every testbed of the iteration.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Host seconds of each simulated point.
    point_s: List[float] = field(default_factory=list)
    #: Worker processes the points ran on.
    jobs: int = 1
    #: Sweep executor fault counts (retries, failures).
    sweep_stats: Dict[str, int] = field(default_factory=dict)
    #: Span aggregates of a traced iteration (see spans.SpanRecorder).
    trace: Optional[dict] = None
    #: Plausibility failures, one line each.
    problems: List[str] = field(default_factory=list)
    #: Mean |simulated - paper| / paper over the paper points, in %.
    paper_err_pct: Optional[float] = None
    #: (start, end) clock readings of each measured phase; ``wall_s`` is their sum.
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: (start, end) of every speed chunk timed while the iteration ran (see
    #: speed.py); for ``sweep-quick`` they ran in the workers.
    chunks: List[Tuple[float, float]] = field(default_factory=list)

    def add_counts(self, counts: Dict[str, float]) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def _rulesets(bed: Testbed) -> list:
    """Every rule-set installed on the testbed's enforcement points."""
    found = []
    for host in bed.hosts.values():
        policy = getattr(host.nic, "policy", None)
        if policy is not None:
            found.append(policy)
        if host.iptables is not None:
            found.extend((host.iptables.input_chain, host.iptables.output_chain))
    return found


def testbed_counts(bed: Testbed) -> Dict[str, float]:
    """Work counts read from the testbed's public counters."""
    ports = [port for link in bed.topology.links.values() for port in (link.port_a, link.port_b)]
    nics = [host.nic for host in bed.hosts.values()]
    queues = [nic.processor for nic in nics if hasattr(nic, "processor")]
    rulesets = _rulesets(bed)
    return {
        "sim.events": bed.sim.events_executed,
        "sim.events_cancelled": bed.sim.events_cancelled,
        "net.frames": sum(port.tx_frames for port in ports),
        "net.queue_drops": sum(port.dropped_frames for port in ports),
        "nic.frames_in": sum(nic.frames_received for nic in nics),
        "nic.ring_offered": sum(q.accepted + q.dropped_full + q.dropped_paused for q in queues),
        "nic.ring_drops": sum(q.dropped_full for q in queues),
        "nic.busy_vs": sum(q.busy_time for q in queues),
        "nic.rules_evaluated": sum(getattr(nic, "rules_evaluated", 0) for nic in nics),
        "firewall.classifier_lookups": sum(
            r.compiled_stats.hits + r.compiled_stats.fallbacks for r in rulesets
        ),
        "firewall.cache_evictions": sum(r.cache_evictions for r in rulesets),
    }


def _install(bed: Testbed, ruleset, client_ruleset=None) -> float:
    """Define, push and compile policy; returns the host seconds taken."""
    start = clock()
    bed.install_target_policy(ruleset)
    if client_ruleset is not None:
        bed.install_client_policy(client_ruleset)
    for installed in _rulesets(bed):
        installed.compiled_classifier  # first compile, otherwise paid by the first packet
    return clock() - start


def _finish_point(sample: Sample, bed: Testbed, started: float, measured: float) -> None:
    now = clock()
    sample.setup_s += measured - started
    sample.wall_s += now - measured
    sample.point_s.append(now - measured)
    sample.intervals.append((measured, now))
    sample.add_counts(testbed_counts(bed))


def _next_measurement(recorder: Optional[spans.SpanRecorder]) -> None:
    if recorder is not None:
        recorder.measurement += 1


def _sampled_in_process(function):
    """Run a single-process workload with ``sampler`` timing chunks throughout."""

    @functools.wraps(function)
    def sampled(seed, recorder, scratch, sampler):
        if sampler is None:
            return function(seed, recorder, scratch)
        with sampler:
            sample = function(seed, recorder, scratch)
        sample.chunks = sampler.samples
        return sample

    return sampled


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

#: Fig 2 at depth 64 in the paper: EFW ~50 Mbps, ADF ~33 Mbps, and iptables
#: flat at the no-loss baseline, which for 1460-byte segments in 1538-byte
#: wire frames (preamble, header, FCS and gap included) is 94.93 Mbps.
PAPER_FIG2_DEPTH64_MBPS = {"efw": 50.0, "adf": 33.0, "iptables": 100.0 * 1460 / 1538}


@_sampled_in_process
def bulk_tcp(seed: int, recorder: Optional[spans.SpanRecorder], scratch: str) -> Sample:
    """One iperf flow through an EFW, an ADF and iptables, allow rule at depth 64."""
    sample = Sample()
    settings = MeasurementSettings(duration=BULK_WINDOW_S, seed=seed)
    errors = []
    for label, device in BULK_DEVICES:
        _next_measurement(recorder)
        started = clock()
        bed = Testbed(device, seed=seed)
        validator = FloodToleranceValidator(device, settings)
        sample.policy_s += _install(bed, validator.bandwidth_ruleset(BULK_DEPTH))
        server = IperfServer(bed.target, settings.iperf_port)
        session = IperfClient(bed.client).start_tcp(
            bed.target.ip, settings.iperf_port, duration=settings.duration
        )
        measured = clock()
        bed.run(settings.duration + 0.01)
        result = session.result()
        server.close()
        _finish_point(sample, bed, started, measured)
        sample.outcome[f"{label}.goodput_bytes"] = result.bytes_transferred
        sample.outcome[f"{label}.connect_failed"] = result.connect_failed
        sample.add_counts({"apps.iperf_bytes": result.bytes_transferred})
        paper = PAPER_FIG2_DEPTH64_MBPS[label]
        error = abs(result.mbps - paper) / paper
        errors.append(error)
        if result.connect_failed or error > 0.2:
            sample.problems.append(
                f"{label}: {result.mbps:.2f} Mbps is not within 20% of the paper's {paper:.1f}"
            )
    sample.paper_err_pct = 100.0 * sum(errors) / len(errors)
    return sample


@_sampled_in_process
def flood_64b(seed: int, recorder: Optional[spans.SpanRecorder], scratch: str) -> Sample:
    """A denied 64-byte TCP-ACK flood with random sources at an ADF, plus an iperf probe."""
    sample = Sample()
    settings = MeasurementSettings(duration=FLOOD_WINDOW_S, seed=seed)
    _next_measurement(recorder)
    started = clock()
    bed = Testbed(DeviceKind.ADF, seed=seed)
    validator = FloodToleranceValidator(DeviceKind.ADF, settings)
    sample.policy_s = _install(bed, validator.flood_ruleset(FLOOD_DEPTH, flood_allowed=False))
    server = IperfServer(bed.target, settings.iperf_port)
    flood = FloodGenerator(
        bed.attacker,
        spec=FloodSpec(
            kind=FloodKind.TCP_ACK, dst_port=settings.denied_flood_port, randomize_src=True
        ),
    )
    flood.start(bed.target.ip, FLOOD_RATE_PPS)
    measured = clock()
    bed.run(settings.flood_lead)
    session = IperfClient(bed.client).start_tcp(
        bed.target.ip, settings.iperf_port, duration=settings.duration
    )
    bed.run(settings.duration + 0.01)
    result = session.result()
    server.close()
    _finish_point(sample, bed, started, measured)
    sample.outcome["probe.goodput_bytes"] = result.bytes_transferred
    sample.outcome["probe.connect_failed"] = result.connect_failed
    sample.outcome["flood.packets_sent"] = flood.packets_sent
    sample.add_counts(
        {"apps.iperf_bytes": result.bytes_transferred, "apps.flood_packets": flood.packets_sent}
    )
    if not is_denial_of_service(result.mbps):
        sample.problems.append(f"probe got {result.mbps:.2f} Mbps; the flood should deny service")
    if flood.packets_sent == 0 or sample.counts["nic.ring_drops"] == 0:
        sample.problems.append("the flood did not overrun the ADF ring")
    return sample


@_sampled_in_process
def http_vpg(seed: int, recorder: Optional[spans.SpanRecorder], scratch: str) -> Sample:
    """http_load fetching 10 KB pages through ADFs carrying 4 VPGs on both ends."""
    sample = Sample()
    _next_measurement(recorder)
    started = clock()
    bed = Testbed(DeviceKind.ADF, client_device=DeviceKind.ADF, seed=seed)
    service = VpgRule(
        action=Action.ALLOW,
        protocol=IpProtocol.TCP,
        dst_ports=PortRange.single(HTTP_PORT),
        vpg_id=500,
        name=f"vpg-service-{HTTP_PORT}",
    )
    sample.policy_s = _install(
        bed,
        vpg_ruleset(HTTP_VPGS, service, name=f"vpg-{HTTP_VPGS}-target"),
        client_ruleset=vpg_ruleset(1, service, name="vpg-client"),
    )
    bed.client.tcp.default_mss = VPG_MSS
    bed.target.tcp.default_mss = VPG_MSS
    server = HttpServer(bed.target, port=HTTP_PORT, pages={"/": HTTP_PAGE_BYTES})
    session = HttpLoadClient(bed.client).start(bed.target.ip, port=HTTP_PORT, duration=HTTP_WINDOW_S)
    measured = clock()
    bed.run(HTTP_WINDOW_S + 0.01)
    result = session.result()
    server.close()
    _finish_point(sample, bed, started, measured)
    sample.outcome["http.fetches"] = result.completed
    sample.outcome["http.failures"] = result.failures
    sample.outcome["http.mean_connect_ms"] = result.mean_connect_ms
    sample.outcome["http.mean_first_response_ms"] = result.mean_first_response_ms
    sample.add_counts({"apps.http_fetches": result.completed, "apps.http_failures": result.failures})
    if result.failures or result.completed == 0:
        sample.problems.append(f"{result.completed} fetches, {result.failures} failures")
    if bed.target.nic.vpg_opened == 0:
        sample.problems.append("no VPG packet was opened on the target")
    return sample


def sweep_quick(
    seed: int, recorder: Optional[spans.SpanRecorder], scratch: str, sampler: Optional[SpeedSampler]
) -> Sample:
    """``fig2_bandwidth.run`` on the quick grid with two sweep workers.

    The points run in forked workers.  Hooks installed before the workers
    fork report each point back through a file per worker:
    ``Testbed.__init__`` remembers the point's testbeds,
    ``Testbed.install_target_policy`` is timed, and
    ``FloodToleranceValidator.available_bandwidth`` (the body of every
    Fig 2 point) writes the testbeds' counters, the point's host seconds
    and, in a traced run, the worker's span aggregates once it returns.
    With a ``sampler``, each worker times speed chunks while it runs a
    point and reports them too; the parent, which only waits, times none.
    """
    sample = Sample(jobs=SWEEP_JOBS)
    if recorder is not None:
        recorder.keep_spans = False  # the spans stay in the workers
    base = QUICK["fig2"]
    preset = replace(base, settings=replace(base.measurement(), seed=seed))
    reports = os.path.join(scratch, f"sweep-points-{os.getpid()}")
    os.makedirs(reports, exist_ok=True)
    beds: List[Testbed] = []
    policy_s: List[float] = []
    executors: List[SweepExecutor] = []
    build, install = Testbed.__init__, Testbed.install_target_policy
    measure, sweep = FloodToleranceValidator.available_bandwidth, SweepExecutor.run

    def registered_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        beds.append(self)

    def timed_install(self, *args, **kwargs):
        started = clock()
        install(self, *args, **kwargs)
        policy_s.append(clock() - started)

    def reported_point(self, *args, **kwargs):
        del beds[:]
        del policy_s[:]
        if recorder is not None:
            recorder.reset()
            recorder.measurement += 1
        worker_sampler = SpeedSampler() if sampler is not None else None
        started = clock()
        if worker_sampler is not None:
            worker_sampler.start()
        try:
            result = measure(self, *args, **kwargs)
        finally:
            if worker_sampler is not None:
                worker_sampler.stop()
        report = {
            "point": [self.device.value, repr(args), repr(sorted(kwargs.items()))],
            "point_s": clock() - started,
            "policy_s": sum(policy_s),
            "mbps": result.mbps,
            "counts": [testbed_counts(bed) for bed in beds],
            "trace": recorder.aggregate() if recorder is not None else None,
            "chunks": worker_sampler.samples if worker_sampler is not None else [],
        }
        with open(os.path.join(reports, f"{os.getpid()}.jsonl"), "a") as out:
            out.write(json.dumps(report) + "\n")
        return result

    def captured_sweep(self, specs):
        executors.append(self)
        return sweep(self, specs)

    hooks = spans.Installation()
    hooks.replace(Testbed, "__init__", registered_build)
    hooks.replace(Testbed, "install_target_policy", timed_install)
    hooks.replace(FloodToleranceValidator, "available_bandwidth", reported_point)
    hooks.replace(SweepExecutor, "run", captured_sweep)
    try:
        started = clock()
        SweepExecutor(jobs=SWEEP_JOBS).run(
            [SweepPointSpec(f"pool start {i}", dict, {}) for i in range(SWEEP_JOBS)]
        )
        measured = clock()
        result = fig2_bandwidth.run(RunConfig(preset=preset, jobs=SWEEP_JOBS))
        finished = clock()
        sample.wall_s = finished - measured
        sample.setup_s = measured - started
        sample.intervals.append((measured, finished))
    finally:
        hooks.undo()
    points = []
    for name in sorted(os.listdir(reports)):
        with open(os.path.join(reports, name)) as lines:
            points.extend(json.loads(line) for line in lines)
    shutil.rmtree(reports)
    points.sort(key=lambda point: point["point"])  # float sums must not depend on scheduling

    stats = executors[-1].stats
    sample.sweep_stats = {"retries": stats.retries, "failures": stats.failures}
    sample.point_s = [point["point_s"] for point in points]
    sample.chunks = [tuple(chunk) for point in points for chunk in point["chunks"]]
    sample.policy_s = sum(point["policy_s"] for point in points)
    window = preset.measurement().duration
    for point in points:
        for counts in point["counts"]:
            sample.add_counts(counts)
        sample.add_counts({"apps.iperf_bytes": round(point["mbps"] * window * 1e6 / 8)})
    if recorder is not None:
        sample.trace = spans.merge([point["trace"] for point in points])
    table = result.table()
    sample.outcome["fig2.table"] = table
    if len(points) != SWEEP_POINTS:
        sample.problems.append(f"{len(points)} points reported, expected {SWEEP_POINTS}")
    sample.problems.extend(_fig2_shape_problems(result))
    return sample


def _fig2_shape_problems(result) -> List[str]:
    """Fig 2's shape: embedded cards lose bandwidth with depth, iptables is flat."""
    problems = []
    for name, points in result.series.items():
        values = [value for _depth, value in points]
        if not all(value > 0 for value in values):
            problems.append(f"fig2 {name}: a point has no bandwidth")
        if name in ("EFW", "ADF") and values != sorted(values, reverse=True):
            problems.append(f"fig2 {name}: bandwidth rises with depth")
        if name == "iptables" and max(values) - min(values) > 0.01 * max(values):
            problems.append("fig2 iptables: bandwidth is not flat")
    return problems


Workload = Callable[[int, Optional[spans.SpanRecorder], str, Optional[SpeedSampler]], Sample]

WORKLOADS: Dict[str, Workload] = {
    "bulk-tcp": bulk_tcp,
    "flood-64b": flood_64b,
    "http-vpg": http_vpg,
    "sweep-quick": sweep_quick,
}
