"""Per-sweep-point metrics collection, identical for any worker count.

The experiment sweeps run each point in its own (possibly forked)
process, so collected metrics must travel back with the point's result.
:class:`MetricsCollector` is the metrics instrument (see
:mod:`repro.instruments`): while its :class:`MetricsConfig` is active in
a process, every kernel built there gets a fresh
:class:`~repro.obs.registry.MetricsRegistry` plus a running
:class:`~repro.obs.sampler.Sampler`; closing the window snapshots them
all, in creation order, and the executor deposits one
:class:`PointMetrics` per sweep point **in spec order**, so ``jobs=1``
and ``jobs=N`` runs produce identical collections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List

from repro import instruments
from repro.obs.instrument import instrument_simulator
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import MetricsSnapshot, Sampler

#: Default virtual-time sampling interval (seconds): ~50-100 points per
#: quick-preset measurement window.
DEFAULT_SAMPLE_INTERVAL = 0.01


@dataclass
class PointMetrics:
    """Metrics of one sweep point: one snapshot per testbed it built.

    Points that probe repeatedly (repetitions, bisection searches) build
    several testbeds; ``snapshots`` lists them in creation order.
    """

    label: str
    snapshots: List[MetricsSnapshot] = field(default_factory=list)


@dataclass
class ExperimentMetrics:
    """All collected metrics of one experiment run."""

    experiment_id: str
    interval: float
    points: List[PointMetrics] = field(default_factory=list)
    schema_version: int = 1
    #: Parent-side sweep-execution counters (``sweep_point_retries``,
    #: ``sweep_point_timeouts``, ``sweep_point_failures``,
    #: ``sweep_worker_deaths``, ``sweep_points_resumed``).
    executor: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MetricsConfig:
    """Picklable metrics recipe applied to every testbed of a sweep point."""

    rank: ClassVar[int] = instruments.METRICS

    #: Virtual-time sampling interval forwarded to every sampler.
    interval: float = DEFAULT_SAMPLE_INTERVAL

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"sample interval must be positive, got {self.interval}")

    def activate(self) -> "_ActiveMetrics":
        return _ActiveMetrics(self.interval)


class MetricsCollector(instruments.Collector):
    """Parent-side accumulator of per-point metric snapshots.

    Parameters
    ----------
    interval:
        Virtual-time sampling interval forwarded to every sampler.

    Besides the per-point snapshots, the collector carries
    ``executor_registry`` — a parent-process :class:`MetricsRegistry`
    into which the sweep executor mirrors its fault-handling counters
    (retries, timeouts, failures, worker deaths, resumed points).
    """

    point_type = PointMetrics

    def __init__(self, interval: float = DEFAULT_SAMPLE_INTERVAL):
        super().__init__(MetricsConfig(float(interval)))
        self.executor_registry = MetricsRegistry()

    def add_stats(self, stats) -> None:
        """Mirror a sweep's :class:`~repro.core.parallel.SweepStats`."""
        registry = self.executor_registry
        registry.counter("sweep_point_retries").inc(stats.retries)
        registry.counter("sweep_point_timeouts").inc(stats.timeouts)
        registry.counter("sweep_point_failures").inc(stats.failures)
        registry.counter("sweep_worker_deaths").inc(stats.worker_deaths)
        registry.counter("sweep_points_resumed").inc(stats.resumed)

    def clear(self) -> None:
        """Drop everything collected so far."""
        super().clear()
        self.executor_registry = MetricsRegistry()

    def experiment(self, experiment_id: str) -> ExperimentMetrics:
        """Package the collection for archiving."""
        return ExperimentMetrics(
            experiment_id=experiment_id,
            interval=self.config.interval,
            points=list(self.points),
            executor=self.executor_registry.read_all(),
        )


class _ActiveMetrics(instruments.Active):
    """Samplers created while one sweep point runs in this process."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samplers: List[Sampler] = []

    def attach(self, sim) -> None:
        """Install a fresh registry on ``sim`` and start sampling it.

        Every component built on the kernel afterwards self-registers
        its instruments into the registry.
        """
        registry = MetricsRegistry()
        sim.metrics = registry
        instrument_simulator(sim)
        sampler = Sampler(sim, registry, self.interval)
        sampler.start()
        self.samplers.append(sampler)

    def deactivate(self, ok: bool) -> List[MetricsSnapshot]:
        """Every sampler's snapshot, in creation order."""
        snapshots = []
        for sampler in self.samplers:
            sampler.stop()
            snapshots.append(sampler.snapshot())
        return snapshots
