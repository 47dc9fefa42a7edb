"""The packet-lifecycle tracer: causal spans, instant events, sampling.

One :class:`PacketTracer` lives on every :class:`~repro.sim.engine.Simulator`
(``sim.tracer``) and is shared by every component built on that kernel.
It records two kinds of things, both stamped in *virtual* time:

* **Spans** (:class:`SpanRecord`) — one completed processing stage of one
  packet: ``app.send`` → ``nic.tx`` → ``link.tx`` → ``switch.forward`` →
  ``link.tx`` → ``nic.rx`` → ``app.deliver``.  Spans are parented: each
  packet carries a :class:`TraceContext` (stamped onto the packet object
  by the IP layer), and every stage links itself under the previous one,
  so the chain reconstructs the packet's end-to-end causal path.
* **Events** (:class:`TraceRecord`) — instant happenings that are not a
  stage of a specific sampled packet's life: ring drops, firewall denies,
  pauses, lockups, agent restarts, TCP retransmits.

Cost discipline (the same null-object contract as ``repro.obs.registry``):
hot paths guard every trace block with a plain attribute check —
``tracer.active`` for span emission, ``tracer.hot`` for events — so the
disabled tracer costs one attribute load and one branch per site.
``active`` is true only while full tracing is on; ``hot`` is additionally
true while a flight recorder or watchdog listener is armed, because
drops/denies/lockups must reach the incident ring even when per-packet
spans are off ("always trace dropped/incident packets").

Sampling: ``sample_every=K`` starts a trace for every K-th packet handed
to :meth:`PacketTracer.begin`; unsampled packets carry no context and
cost nothing downstream.  Incident *events* are never sampled away — the
emitting sites fire on ``hot`` regardless of packet sampling.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Span-duration histogram buckets (milliseconds): NIC stages are tens of
#: microseconds, a wedged queue wait can reach whole seconds.
SPAN_MS_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 50.0, 500.0)

#: Sentinel distinguishing "no explicit parent given" from "root" (None).
_UNSET = object()


@dataclass(frozen=True)
class TraceRecord:
    """A single instant trace event.

    Events correlated with a sampled packet additionally carry that
    packet's ``trace_id``.
    """

    time: float
    source: str
    event: str
    fields: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[int] = None

    def __str__(self) -> str:
        extras = " ".join(f"{key}={value}" for key, value in sorted(self.fields.items()))
        return f"[{self.time:.6f}] {self.source} {self.event} {extras}".rstrip()


@dataclass(frozen=True)
class SpanRecord:
    """One completed packet-lifecycle stage in virtual time.

    ``parent_id`` is the span id of the previous stage of the same packet
    (None for the root), so each trace's spans form a chain/tree ordered
    by causality: a parent's ``start`` never exceeds its child's.
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    #: Stage name: ``app.send``, ``nic.tx``, ``link.tx``, ``switch.forward``,
    #: ``nic.rx``, ``iptables``, ``app.deliver``.
    name: str
    #: The component the stage ran on (host, NIC, port, or switch name);
    #: exporters lay spans out one track per component.
    track: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Stage duration in virtual seconds."""
        return self.end - self.start

    def __str__(self) -> str:
        extras = " ".join(f"{key}={value}" for key, value in sorted(self.attrs.items()))
        return (
            f"[{self.start:.6f}..{self.end:.6f}] #{self.trace_id} "
            f"{self.track} {self.name} {extras}"
        ).rstrip()


class TraceContext:
    """Per-packet causal state, stamped onto traced packet objects.

    ``head`` is the span id of the packet's most recently completed stage;
    the next stage emitted for this packet parents itself under it.
    """

    __slots__ = ("trace_id", "head")

    def __init__(self, trace_id: int, head: Optional[int] = None):
        self.trace_id = trace_id
        self.head = head

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceContext #{self.trace_id} head={self.head}>"


class PacketTracer:
    """Collects spans and events for one simulation kernel.

    Parameters
    ----------
    max_records, max_spans:
        Ring bounds; the oldest entries are dropped beyond these.
    sample_every:
        Start a trace for every K-th packet offered to :meth:`begin`.

    The tracer starts cold; :meth:`configure` arms it.
    """

    def __init__(
        self,
        max_records: int = 100_000,
        max_spans: int = 200_000,
        sample_every: int = 1,
    ):
        self.max_records = max_records
        self.max_spans = max_spans
        self.sample_every = max(1, int(sample_every))
        #: Span pipeline armed (plain attribute: hot paths read it directly).
        self.active = False
        #: Any consumer armed — spans, flight recorder, or listeners.
        #: Event sites fire on this so drops/denies/lockups reach the
        #: flight ring even when per-packet tracing is off.
        self.hot = False
        #: Armed :class:`~repro.obs.tracing.flight.FlightRecorder`, or None.
        self.flight = None
        #: Armed :class:`~repro.obs.tracing.watchdog.Watchdog`, or None.
        self.watchdog = None
        #: Incidents recorded via :meth:`record_incident`, in onset order.
        self.incidents: List[Any] = []
        self.traces_started = 0
        self._records: deque = deque(maxlen=max_records)
        self._spans: deque = deque(maxlen=max_spans)
        self._listeners: List[Callable[[Any], None]] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._sample_counter = 0
        self._hist_registry = None
        self._hist_cache: Dict[Any, Any] = {}

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Recompute :attr:`hot` after an arming change."""
        self.hot = self.active or self.flight is not None or bool(self._listeners)

    def configure(
        self,
        *,
        spans: Optional[bool] = None,
        sample_every: Optional[int] = None,
        flight=None,
        max_records: Optional[int] = None,
        max_spans: Optional[int] = None,
    ) -> None:
        """Re-arm the tracer (used by the collection plumbing and tests)."""
        if sample_every is not None:
            self.sample_every = max(1, int(sample_every))
        if max_records is not None and max_records != self.max_records:
            self.max_records = max_records
            self._records = deque(self._records, maxlen=max_records)
        if max_spans is not None and max_spans != self.max_spans:
            self.max_spans = max_spans
            self._spans = deque(self._spans, maxlen=max_spans)
        if flight is not None:
            self.flight = flight
        if spans is not None:
            self.active = bool(spans)
        self._refresh()

    def add_listener(self, listener: Callable[[Any], None]) -> None:
        """Stream every span *and* event to ``listener`` (the watchdog)."""
        self._listeners.append(listener)
        self._refresh()

    def bridge_metrics(self, registry) -> None:
        """Observe every span's duration into ``registry`` histograms.

        One ``trace_span_ms`` histogram per (stage, track): the bridge
        that keeps traces and the metrics layer telling the same story.
        """
        self._hist_registry = registry
        self._hist_cache = {}

    # ------------------------------------------------------------------
    # Span API (call sites guard on ``active``)
    # ------------------------------------------------------------------

    def begin(self, packet) -> Optional[TraceContext]:
        """Start a trace for ``packet`` if the sampler elects it.

        Stamps a fresh :class:`TraceContext` onto the packet object (as
        ``packet.trace_ctx``) and returns it; returns None for unsampled
        packets.  Call only when :attr:`active` is true.
        """
        count = self._sample_counter
        self._sample_counter = count + 1
        if count % self.sample_every:
            return None
        ctx = TraceContext(next(self._trace_ids))
        packet.trace_ctx = ctx
        self.traces_started += 1
        return ctx

    def span(
        self,
        ctx: TraceContext,
        name: str,
        track: str,
        start: float,
        end: float,
        parent: Any = _UNSET,
        **attrs: Any,
    ) -> SpanRecord:
        """Record one completed stage of ``ctx``'s packet.

        Without an explicit ``parent``, the span parents itself under the
        context's current head; either way it becomes the new head.
        Emitting sites whose packet can *branch* (a switch flooding the
        same frame out several ports) pass the parent span id they
        captured on their carrier object at hand-off time, because by
        emission time the shared head may already belong to a sibling
        branch.
        """
        span_id = next(self._span_ids)
        record = SpanRecord(
            trace_id=ctx.trace_id,
            span_id=span_id,
            parent_id=ctx.head if parent is _UNSET else parent,
            name=name,
            track=track,
            start=start,
            end=end,
            attrs=attrs,
        )
        ctx.head = span_id
        self._spans.append(record)
        flight = self.flight
        if flight is not None:
            flight.record(record)
        for listener in self._listeners:
            listener(record)
        registry = self._hist_registry
        if registry is not None:
            self._observe_duration(name, track, end - start)
        return record

    def _observe_duration(self, name: str, track: str, seconds: float) -> None:
        key = (name, track)
        hist = self._hist_cache.get(key)
        if hist is None:
            hist = self._hist_registry.histogram(
                "trace_span_ms", buckets=SPAN_MS_BUCKETS, stage=name, track=track
            )
            self._hist_cache[key] = hist
        hist.observe(seconds * 1000.0)

    # ------------------------------------------------------------------
    # Event API (call sites guard on ``hot``)
    # ------------------------------------------------------------------

    def event(
        self,
        time: float,
        source: str,
        name: str,
        ctx: Optional[TraceContext] = None,
        **fields: Any,
    ) -> TraceRecord:
        """Record an instant event, optionally correlated with a trace."""
        record = TraceRecord(
            time=time,
            source=source,
            event=name,
            fields=fields,
            trace_id=ctx.trace_id if ctx is not None else None,
        )
        if self.active:
            self._records.append(record)
        flight = self.flight
        if flight is not None:
            flight.record(record)
        for listener in self._listeners:
            listener(record)
        return record

    # ------------------------------------------------------------------
    # Incidents
    # ------------------------------------------------------------------

    def record_incident(self, incident) -> None:
        """File an incident; the flight recorder dumps once, on onset."""
        flight = self.flight
        if flight is not None:
            incident.dump = flight.dump()
            incident.detail["last_stage"] = _last_stage(incident.dump)
        self.incidents.append(incident)

    # ------------------------------------------------------------------
    # Readback
    # ------------------------------------------------------------------

    def records(
        self,
        source: Optional[str] = None,
        event: Optional[str] = None,
    ) -> List[TraceRecord]:
        """Collected instant events, optionally filtered by source/event."""
        result: Any = self._records
        if source is not None:
            result = [record for record in result if record.source == source]
        if event is not None:
            result = [record for record in result if record.event == event]
        return list(result)

    def spans(
        self,
        trace_id: Optional[int] = None,
        name: Optional[str] = None,
        track: Optional[str] = None,
    ) -> List[SpanRecord]:
        """Collected spans, optionally filtered."""
        result: Any = self._spans
        if trace_id is not None:
            result = [span for span in result if span.trace_id == trace_id]
        if name is not None:
            result = [span for span in result if span.name == name]
        if track is not None:
            result = [span for span in result if span.track == track]
        return list(result)


def _last_stage(dump: List[Any]) -> Optional[str]:
    """Attribute the last completed span in a flight dump to its stage."""
    for record in reversed(dump):
        if isinstance(record, SpanRecord):
            return f"{record.name}@{record.track} t={record.end:.6f}"
    return None
