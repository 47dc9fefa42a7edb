"""Chaos and invariant monitoring as a sweep instrument.

Sweep workers can't reach into an experiment function to hand it a
chaos schedule, so chaos follows the instrument protocol of
:mod:`repro.instruments`: while a :class:`ChaosConfig` is active in a
process, every testbed built there arms the configured scenario and
invariant monitors once its construction completes, and closing the
window harvests what happened into one :class:`ChaosSnapshot` per
point.  The parent-side :class:`ChaosCollector` receives them in spec
order, so violations found in ``warn`` mode reach the caller.

Activation state is per-process; with process-pool sweeps each worker
activates independently, which is exactly the isolation wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional

from repro import instruments
from repro.chaos.invariants import MODES, InvariantMonitor, InvariantViolation
from repro.chaos.schedule import SCENARIOS, ChaosInjector, build_scenario


@dataclass(frozen=True)
class ChaosConfig:
    """Picklable chaos recipe applied to every testbed of a sweep point.

    ``scenario`` names a scenario from
    :data:`~repro.chaos.schedule.SCENARIOS` to arm on every testbed;
    ``invariants`` (``"warn"`` or ``"fail-fast"``) attaches an
    :class:`InvariantMonitor` to each.  Either may be None.
    """

    rank: ClassVar[int] = instruments.CHAOS

    scenario: Optional[str] = None
    invariants: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scenario is not None and self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown chaos scenario {self.scenario!r}; "
                f"choose from {', '.join(SCENARIOS)}"
            )
        if self.invariants is not None and self.invariants not in MODES:
            raise ValueError(
                f"invariants mode must be one of {MODES}, got {self.invariants!r}"
            )

    def activate(self) -> "_ActiveChaos":
        return _ActiveChaos(self)


@dataclass
class ChaosSnapshot:
    """What one activation window saw: faults fired, violations found."""

    scenario: Optional[str] = None
    invariants: Optional[str] = None
    faults_injected: int = 0
    faults_cleared: int = 0
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations


@dataclass
class PointChaos:
    """Chaos outcome of one sweep point."""

    label: str
    snapshots: List[ChaosSnapshot] = field(default_factory=list)


class ChaosCollector(instruments.Collector):
    """Parent-side accumulator of per-point chaos snapshots."""

    point_type = PointChaos

    def violations(self) -> List[InvariantViolation]:
        """Every invariant violation collected so far, in collection order."""
        return [
            violation
            for point in self.points
            for snapshot in point.snapshots
            for violation in snapshot.violations
        ]


class _ActiveChaos(instruments.Active):
    """Injectors and monitors armed while one sweep point runs here."""

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.injectors: List[ChaosInjector] = []
        self.monitors: List[InvariantMonitor] = []

    def built(self, bed) -> None:
        """Arm the scenario and monitors on a freshly built testbed."""
        injector: Optional[ChaosInjector] = None
        if self.config.scenario is not None:
            injector = ChaosInjector(bed, build_scenario(self.config.scenario))
            injector.arm()
            self.injectors.append(injector)
            bed.chaos = injector
        if self.config.invariants is not None:
            monitor = InvariantMonitor(bed, mode=self.config.invariants, injector=injector)
            self.monitors.append(monitor)
            bed.invariant_monitor = monitor

    def deactivate(self, ok: bool) -> List[ChaosSnapshot]:
        """Finalize the monitors and summarise the point.

        With ``ok`` False the monitors' final sweep is skipped: the run
        already failed, and end-state invariants of a half-finished run
        would mask the original error.  A fail-fast violation found by
        the final sweep of a successful run raises from here.
        """
        snapshot = ChaosSnapshot(
            scenario=self.config.scenario, invariants=self.config.invariants
        )
        for injector in self.injectors:
            snapshot.faults_injected += injector.injected
            snapshot.faults_cleared += injector.cleared
        for monitor in self.monitors:
            snapshot.violations.extend(monitor.finalize(strict=ok))
        return [snapshot]
