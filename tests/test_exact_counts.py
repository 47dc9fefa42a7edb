"""Exact work counts of two short runs through the public Testbed API.

The per-frame path computes packet and frame sizes once at construction
and keeps TCP flags as an int mask.  These pins guard that such changes alter no event, no frame and no byte:
the kernel's executed-event count, every link port's frame and byte
counters, and the application result must equal the values recorded
before the fast path existed.  A deliberate behaviour change must update
them (and explain why in CHANGES.md).
"""

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.apps.iperf import IperfClient, IperfServer
from repro.core.methodology import FloodToleranceValidator, MeasurementSettings
from repro.core.testbed import DeviceKind, Testbed


def _port_counters(bed):
    return {
        port.name: (port.tx_frames, port.tx_bytes, port.rx_bytes)
        for link in bed.topology.links.values()
        for port in (link.port_a, link.port_b)
    }


def iperf_run():
    """0.2 s of one iperf TCP flow through an EFW, allow rule at depth 16."""
    settings = MeasurementSettings(duration=0.2, seed=3)
    bed = Testbed(DeviceKind.EFW, seed=3)
    bed.install_target_policy(
        FloodToleranceValidator(DeviceKind.EFW, settings).bandwidth_ruleset(16)
    )
    server = IperfServer(bed.target, settings.iperf_port)
    session = IperfClient(bed.client).start_tcp(
        bed.target.ip, settings.iperf_port, duration=settings.duration
    )
    bed.run(settings.duration + 0.01)
    server.close()
    return bed, session.result()


def flood_run():
    """0.1 s of a denied 64-byte TCP-ACK flood with random sources at an ADF."""
    settings = MeasurementSettings(duration=0.1, seed=5)
    bed = Testbed(DeviceKind.ADF, seed=5)
    bed.install_target_policy(
        FloodToleranceValidator(DeviceKind.ADF, settings).flood_ruleset(32, flood_allowed=False)
    )
    flood = FloodGenerator(
        bed.attacker,
        spec=FloodSpec(
            kind=FloodKind.TCP_ACK, dst_port=settings.denied_flood_port, randomize_src=True
        ),
    )
    flood.start(bed.target.ip, 30000.0)
    bed.run(settings.duration)
    return bed, flood


class TestIperfFlow:
    def test_events_frames_and_bytes(self):
        bed, result = iperf_run()
        assert bed.sim.events_executed == 15777
        assert result.bytes_transferred == 2097615
        assert not result.connect_failed
        assert _port_counters(bed) == {
            "lan.policyserver.a": (1, 64, 0),
            "lan.policyserver.b": (0, 0, 64),
            "lan.client.a": (743, 47552, 2250880),
            "lan.client.b": (1510, 2250880, 47552),
            "lan.target.a": (1510, 2250880, 47552),
            "lan.target.b": (743, 47552, 2250880),
            "lan.attacker.a": (1, 64, 0),
            "lan.attacker.b": (0, 0, 64),
        }


class TestDeniedFlood:
    def test_events_frames_and_bytes(self):
        bed, flood = flood_run()
        assert bed.sim.events_executed == 34022
        assert flood.packets_sent == 3001
        assert bed.target.nic.processor.dropped_full == 1914
        # The target never transmits, so the switch never learns its MAC
        # and floods every frame out of all three other station ports.
        assert _port_counters(bed) == {
            "lan.policyserver.a": (3000, 192000, 0),
            "lan.policyserver.b": (0, 0, 192000),
            "lan.client.a": (3000, 192000, 0),
            "lan.client.b": (0, 0, 192000),
            "lan.target.a": (3000, 192000, 0),
            "lan.target.b": (0, 0, 192000),
            "lan.attacker.a": (0, 0, 192000),
            "lan.attacker.b": (3000, 192000, 0),
        }
