"""The instrument protocol and the process-local window it opens.

An *instrument* observes (metrics, tracing, profiling) or perturbs
(chaos, invariant monitors) every testbed a sweep point builds.  Its
parent-side :class:`Collector` carries a frozen, picklable ``config``
and receives one ``add_point(label, snapshots)`` per sweep point, in
spec order.  In the process running the point, ``config.activate()``
returns an :class:`Active` that meets every kernel and testbed built
there (:func:`building`) until ``deactivate(ok)`` returns the point's
snapshots.  All open instruments of a process form one tuple, the
*window*, opened by :func:`activate` and closed by :func:`deactivate`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, List, Sequence, Tuple

#: Activation ranks.  Profiling opens first (and closes last) so its
#: wall clock spans the whole point; metrics open before tracing so the
#: trace histogram bridge sees a real registry; chaos arms last.
PROFILE, METRICS, TRACE, CHAOS = range(4)


class Collector:
    """Parent-side half: ``config`` plus one ``point_type`` record per point."""

    point_type: Any

    def __init__(self, config) -> None:
        self.config = config
        self.points: List[Any] = []

    def add_point(self, label: str, snapshots: list) -> None:
        """Deposit one sweep point's snapshots (called by the executor)."""
        self.points.append(self.point_type(label=label, snapshots=snapshots))

    def add_failure(self, label: str, failure) -> None:
        """Keep the collection 1:1 with the specs when a point fails."""
        self.add_point(label, [])

    def add_stats(self, stats) -> None:
        """Receive the fault-handling counts of one finished sweep."""

    def clear(self) -> None:
        """Drop everything collected so far."""
        self.points.clear()

    def __len__(self) -> int:
        return len(self.points)


class Active:
    """Worker-side half: one open activation of an instrument."""

    def attach(self, sim) -> None:
        """Instrument a fresh kernel before anything is built on it."""

    def built(self, bed) -> None:
        """A testbed finished construction."""

    def deactivate(self, ok: bool) -> list:
        """Close the activation; ``ok`` is False when the point raised."""
        raise NotImplementedError


def ordered(collectors: Iterable[Collector]) -> Tuple[Collector, ...]:
    """``collectors`` in activation order; two of one kind raise ValueError."""
    result = tuple(sorted(collectors, key=lambda collector: collector.config.rank))
    for first, second in zip(result, result[1:]):
        if first.config.rank == second.config.rank:
            raise ValueError(
                f"two {type(second).__name__} instruments given; pass one per kind"
            )
    return result


_WINDOW: Tuple[Active, ...] = ()


def active() -> Tuple[Active, ...]:
    """The instruments open in this process (empty when none)."""
    return _WINDOW


def activate(configs: Sequence[Any]) -> None:
    """Open the window: activate each config, in the order given."""
    global _WINDOW
    if _WINDOW:
        raise RuntimeError("an instrument window is already open in this process")
    for config in configs:
        try:
            _WINDOW += (config.activate(),)
        except BaseException:
            deactivate(ok=False)
            raise


def deactivate(ok: bool) -> list:
    """Close the window; return one snapshot list per instrument.

    Teardown runs in reverse activation order and reaches every
    instrument even when one raises (a fail-fast invariant found by the
    final check); the first error is re-raised once all are closed.
    Closing an already-closed window returns an empty list.
    """
    global _WINDOW
    opened, _WINDOW = _WINDOW, ()
    snapshots: list = [None] * len(opened)
    error = None
    for index in reversed(range(len(opened))):
        try:
            snapshots[index] = opened[index].deactivate(ok)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            error = error or exc
    if error is not None:
        raise error
    return snapshots


def attach(sim) -> None:
    """Instrument a fresh kernel with every open instrument."""
    for instrument in _WINDOW:
        instrument.attach(sim)


@contextmanager
def building(bed):
    """Wrap a testbed's construction in the open instruments.

    Kernel instruments attach to ``bed.sim`` before any component is
    built (components self-register against it), construction is
    billed to a ``testbed.build`` profiler scope, and chaos arms once
    the testbed is complete; a raising constructor skips the latter
    two.  Costs one truthiness check when no window is open.
    """
    if not _WINDOW:
        yield
        return
    attach(bed.sim)
    bed.sim.profiler.enter("testbed.build")
    yield
    bed.sim.profiler.exit()
    for instrument in _WINDOW:
        instrument.built(bed)
