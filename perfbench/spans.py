"""Layer spans and counters for the traced benchmark run.

The traced run times the public entry points of each layer of ``repro``
from the outside: :func:`install` replaces those methods on their classes
with wrappers that record a span (name, start, end, parent) into a
:class:`SpanRecorder`, and :meth:`Installation.undo` puts the originals
back.
Nothing under ``src/`` changes.

Self time of a span is its duration minus the time covered by its child
spans, so nested calls are billed to the innermost layer that is timed.
Work inside ``Simulator.run`` that no layer span covers (the dispatch loop
and private kernel callbacks such as link transmit/deliver completions and
timers) stays as the self time of ``Simulator.run`` and is reported as
``sim.self_s``, next to ``trace.coverage_pct``.

Tiny hot functions (packet sizes, cipher calls) are counted, not timed:
a timer around them would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (layer, module, class, method) of every timed entry point.
TIMED: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Simulator", "run"),
    ("net", "repro.net.link", "LinkPort", "send"),
    ("net", "repro.net.switch", "EthernetSwitch", "receive_frame"),
    ("nic", "repro.nic.base", "BaseNic", "receive_frame"),
    ("nic", "repro.nic.base", "BaseNic", "send_packet"),
    ("nic", "repro.nic.queues", "ServiceQueue", "offer"),
    ("firewall", "repro.firewall.ruleset", "RuleSet", "evaluate"),
    ("firewall", "repro.firewall.ruleset", "RuleSet", "evaluate_encrypted"),
    ("firewall", "repro.firewall.iptables", "IptablesFilter", "filter_input"),
    ("firewall", "repro.firewall.iptables", "IptablesFilter", "filter_output"),
    ("host.ip", "repro.host.host", "Host", "deliver_packet"),
    ("host.ip", "repro.host.host", "Host", "transmit"),
    ("host.ip", "repro.host.ip", "IpLayer", "packet_arrived"),
    ("host.ip", "repro.host.ip", "IpLayer", "send_packet"),
    ("host.tcp", "repro.host.tcp", "TcpManager", "segment_arrived"),
    ("host.tcp", "repro.host.tcp", "TcpConnection", "segment_arrived"),
    ("host.tcp", "repro.host.tcp", "TcpConnection", "send"),
    ("crypto", "repro.crypto.vpg", "VpgContext", "seal"),
    ("crypto", "repro.crypto.vpg", "VpgContext", "open"),
    # The apps have no single public entry point on the hot path; these
    # are the callbacks the kernel and TCP invoke on them.
    ("apps", "repro.apps.iperf", "IperfServer", "_data"),
    ("apps", "repro.apps.iperf", "TcpIperfSession", "_connected"),
    ("apps", "repro.apps.iperf", "TcpIperfSession", "_finish"),
    ("apps", "repro.apps.flood", "FloodGenerator", "_send_one"),
    ("apps", "repro.apps.flood", "FloodGenerator", "_send_one_jittered"),
    ("apps", "repro.apps.http_load", "HttpLoadSession", "_begin_fetch"),
    ("apps", "repro.apps.httpd", "HttpServer", "_accept"),
    ("apps", "repro.apps.httpd", "HttpServer", "_respond"),
)

#: Layers in report order.
LAYERS = ("sim", "net", "nic", "firewall", "host.ip", "host.tcp", "crypto", "apps")

#: Span name -> layer.
LAYER_OF: Dict[str, str] = {f"{cls}.{method}": layer for layer, _, cls, method in TIMED}


class SpanRecorder:
    """In-memory spans plus per-name self time, total time and call counts.

    Aggregates always accumulate; raw spans are kept only while
    :attr:`keep_spans` is true, which bounds memory on long runs.
    """

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: TcpConnection objects built while installed (for their counters).
        self.connections: list = []
        #: Id shared by every span of one measured simulation.
        self.measurement = 0
        self.keep_spans = False
        self.ids = itertools.count(1)

    def reset(self) -> None:
        """Clear the aggregates (in place: the wrappers hold references)."""
        self.self_ns.clear()
        self.total_ns.clear()
        self.calls.clear()
        self.counts.clear()
        del self.connections[:]

    def aggregate(self) -> dict:
        """A plain-dict copy of the aggregates, for one measurement."""
        return {
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "tcp_connections": len(self.connections),
            "tcp_retransmitted": sum(c.segments_retransmitted for c in self.connections),
        }


def _timed(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    clock = time.perf_counter_ns
    stack = recorder.stack
    spans = recorder.spans
    self_ns = recorder.self_ns
    total_ns = recorder.total_ns
    calls = recorder.calls
    ids = recorder.ids

    def span(*args, **kwargs):
        frame = [next(ids), 0]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            elapsed = end - start
            self_ns[name] += elapsed - frame[1]
            total_ns[name] += elapsed
            calls[name] += 1
            if stack:
                parent = stack[-1]
                parent[1] += elapsed
                parent_id = parent[0]
            else:
                parent_id = 0
            if recorder.keep_spans:
                spans.append((recorder.measurement, frame[0], parent_id, name, start, end))

    return span


def _counted_property(counts: Dict[str, int], key: str, prop: property) -> property:
    getter = prop.fget

    def get(self):
        counts[key] += 1
        return getter(self)

    return property(get, doc=prop.__doc__)


def _charging(counts: Dict[str, int], evaluate: Callable) -> Callable:
    """Count the rule-table entries each verdict charges (cache hits too)."""

    def charged(*args, **kwargs):
        result = evaluate(*args, **kwargs)
        counts["firewall.rules_charged"] += result.rules_traversed
        return result

    return charged


def _class(module: str, name: str):
    return getattr(importlib.import_module(module), name)


class Installation:
    """The wrappers currently installed; :meth:`undo` restores the originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def replace(self, cls: type, attr: str, value: object) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def undo(self) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        del self._saved[:]


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every timed entry point and counted hot function."""
    done = Installation()
    counts = recorder.counts
    for _layer, module, cls_name, method in TIMED:
        cls = _class(module, cls_name)
        fn = cls.__dict__[method]
        if cls_name == "RuleSet":
            fn = _charging(counts, fn)
        done.replace(cls, method, _timed(recorder, f"{cls_name}.{method}", fn))

    packet = importlib.import_module("repro.net.packet")
    done.replace(
        packet.Ipv4Packet, "size",
        _counted_property(counts, "net.size_calls", packet.Ipv4Packet.__dict__["size"]),
    )
    done.replace(
        packet.EthernetFrame, "wire_size",
        _counted_property(counts, "net.size_calls", packet.EthernetFrame.__dict__["wire_size"]),
    )

    cipher = _class("repro.crypto.feistel", "FeistelCipher")
    encrypt, decrypt = cipher.encrypt, cipher.decrypt

    def counted_encrypt(self, plaintext, sequence=0):
        counts["crypto.blocks"] += len(plaintext) // 8 + 1  # PKCS#7 always pads
        return encrypt(self, plaintext, sequence)

    def counted_decrypt(self, ciphertext, sequence=0):
        counts["crypto.blocks"] += len(ciphertext) // 8
        return decrypt(self, ciphertext, sequence)

    done.replace(cipher, "encrypt", counted_encrypt)
    done.replace(cipher, "decrypt", counted_decrypt)

    tcp = importlib.import_module("repro.host.tcp")
    connection_init = tcp.TcpConnection.__init__
    transmit_segment = tcp.TcpManager.transmit_segment

    def registered_init(self, *args, **kwargs):
        connection_init(self, *args, **kwargs)
        recorder.connections.append(self)

    def counted_transmit(self, remote_ip, segment):
        counts["host.tcp.segments_sent"] += 1
        return transmit_segment(self, remote_ip, segment)

    done.replace(tcp.TcpConnection, "__init__", registered_init)
    done.replace(tcp.TcpManager, "transmit_segment", counted_transmit)
    return done


def write_spans(path: str, spans: List[tuple]) -> None:
    """Write spans, one JSON array per line: measurement, id, parent, name, start_ns, end_ns."""
    with open(path, "w") as out:
        out.write('["measurement","id","parent","name","start_ns","end_ns"]\n')
        for measurement, span_id, parent, name, start, end in spans:
            out.write(f'[{measurement},{span_id},{parent},"{name}",{start},{end}]\n')


def layer_totals(self_ns: Dict[str, int]) -> Dict[str, int]:
    """Self nanoseconds per layer."""
    totals = {layer: 0 for layer in LAYERS}
    for name, value in self_ns.items():
        totals[LAYER_OF[name]] += value
    return totals


def merge(parts: List[dict]) -> dict:
    """Sum several :meth:`SpanRecorder.aggregate` dicts."""
    merged: dict = {
        "self_ns": {}, "total_ns": {}, "calls": {}, "counts": {},
        "tcp_connections": 0, "tcp_retransmitted": 0,
    }
    for part in parts:
        for key in ("self_ns", "total_ns", "calls", "counts"):
            target = merged[key]
            for name, value in part[key].items():
                target[name] = target.get(name, 0) + value
        merged["tcp_connections"] += part["tcp_connections"]
        merged["tcp_retransmitted"] += part["tcp_retransmitted"]
    return merged
