"""Per-sweep-point trace collection, identical for any worker count.

:class:`TraceCollector` is the tracing instrument (see
:mod:`repro.instruments`): experiment sweeps run each point in its own
(possibly forked) process, so trace output travels back with the
point's result as picklable snapshots, deposited in spec order so
``jobs=1`` and ``jobs=N`` produce identical collections.  While its
:class:`TraceConfig` is active in a process, every kernel built there
arms its tracer (see :func:`arm_tracer`): spans + sampling per the
config, a flight recorder and watchdog when requested, and the
span-duration histogram bridge whenever the kernel also carries a real
metrics registry.  Closing the window finalizes every watchdog and
snapshots every tracer, in creation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, List, Optional

from repro import instruments
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing.flight import DEFAULT_FLIGHT_SIZE, FlightRecorder
from repro.obs.tracing.tracer import SpanRecord, TraceRecord
from repro.obs.tracing.watchdog import Incident, Watchdog


@dataclass(frozen=True)
class TraceConfig:
    """Picklable arming recipe applied to every testbed of a sweep point."""

    rank: ClassVar[int] = instruments.TRACE

    #: Record per-packet lifecycle spans (the CLI's ``--trace``).
    spans: bool = True
    #: Trace every K-th packet (the CLI's ``--trace-sample K``).
    sample_every: int = 1
    #: Arm the bounded incident ring (the CLI's ``--flight-recorder``).
    flight: bool = False
    flight_size: int = DEFAULT_FLIGHT_SIZE
    #: Detect incidents (lockups, saturation, thrash, zero-goodput).
    watchdog: bool = True
    max_spans: int = 200_000
    max_records: int = 100_000

    def activate(self) -> "_ActiveTracing":
        return _ActiveTracing(self)


@dataclass
class TraceSnapshot:
    """Everything one testbed's tracer collected (picklable)."""

    spans: List[SpanRecord] = field(default_factory=list)
    events: List[TraceRecord] = field(default_factory=list)
    incidents: List[Incident] = field(default_factory=list)
    traces_started: int = 0
    schema_version: int = 1


@dataclass
class PointTrace:
    """Traces of one sweep point: one snapshot per testbed it built.

    Points that probe repeatedly (repetitions, bisection searches) build
    several testbeds; ``snapshots`` lists them in creation order.
    """

    label: str
    snapshots: List[TraceSnapshot] = field(default_factory=list)


@dataclass
class ExperimentTrace:
    """All collected traces of one experiment run."""

    experiment_id: str
    config: TraceConfig = field(default_factory=TraceConfig)
    points: List[PointTrace] = field(default_factory=list)
    schema_version: int = 1

    def incidents(self) -> List[Incident]:
        """Every incident across all points, in collection order."""
        return [
            incident
            for point in self.points
            for snapshot in point.snapshots
            for incident in snapshot.incidents
        ]


class TraceCollector(instruments.Collector):
    """Parent-side accumulator of per-point trace snapshots."""

    point_type = PointTrace

    def __init__(self, config: Optional[TraceConfig] = None):
        super().__init__(config if config is not None else TraceConfig())

    def add_failure(self, label: str, failure) -> None:
        """File a ``sweep-point-failure`` incident for a point that failed."""
        incident = Incident(
            kind="sweep-point-failure",
            source=label,
            time=0.0,
            detail={
                "index": failure.index,
                "cause": failure.kind,
                "attempts": failure.attempts,
                "error": failure.error,
            },
        )
        self.add_point(label, [TraceSnapshot(incidents=[incident])])

    def experiment(self, experiment_id: str) -> ExperimentTrace:
        """Package the collection for archiving."""
        return ExperimentTrace(
            experiment_id=experiment_id, config=self.config, points=list(self.points)
        )

    def incidents(self) -> List[Incident]:
        """Every incident collected so far, in collection order."""
        return self.experiment("").incidents()


class _ActiveTracing(instruments.Active):
    """Tracers armed while one sweep point runs in this process."""

    def __init__(self, config: TraceConfig):
        self.config = config
        self.simulators: List[Any] = []

    def attach(self, sim) -> None:
        """Arm ``sim``'s tracer; call after the metrics attach."""
        arm_tracer(sim, self.config)
        self.simulators.append(sim)

    def deactivate(self, ok: bool) -> List[TraceSnapshot]:
        """Every armed tracer's snapshot, in creation order."""
        return [snapshot_tracer(sim.tracer, now=sim.now) for sim in self.simulators]


def snapshot_tracer(tracer, now: Optional[float] = None) -> TraceSnapshot:
    """Finalize ``tracer``'s watchdog (if any) and package its state."""
    watchdog = tracer.watchdog
    if watchdog is not None and now is not None:
        watchdog.finalize(now)
    return TraceSnapshot(
        spans=list(tracer.spans()),
        events=list(tracer.records()),
        incidents=list(tracer.incidents),
        traces_started=tracer.traces_started,
    )


def arm_tracer(sim, config: TraceConfig):
    """Arm ``sim``'s tracer per ``config`` and return it."""
    tracer = sim.tracer
    tracer.configure(
        spans=config.spans,
        sample_every=config.sample_every,
        flight=FlightRecorder(config.flight_size) if config.flight else None,
        max_records=config.max_records,
        max_spans=config.max_spans,
    )
    if config.watchdog and tracer.watchdog is None:
        Watchdog(tracer)
    if sim.metrics is not NULL_REGISTRY:
        tracer.bridge_metrics(sim.metrics)
    return tracer
