"""Microbenchmarks of the simulator's hot paths.

These are conventional pytest-benchmark measurements (many rounds): the
event kernel, rule-set evaluation, the embedded-NIC service path, the
toy cipher, and TCP goodput per wall-second — useful for catching
performance regressions that would make the experiment sweeps impractical.
"""

from __future__ import annotations

import pytest

from repro.crypto.feistel import FeistelCipher
from repro.crypto.vpg import VpgContext
from repro.firewall.builders import padded_ruleset, service_rule
from repro.firewall.rules import Action, Direction
from repro.net.addresses import Ipv4Address
from repro.net.packet import IpProtocol, Ipv4Packet, TcpFlags, TcpSegment
from repro.sim.engine import Simulator

#: Rule depths for the uncached-vs-compiled pair (the paper's deep end).
DEPTHS = (32, 64)


def test_event_kernel_throughput(benchmark):
    """Schedule+run cycles of the event heap."""

    def run_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return count[0]

    assert benchmark(run_events) == 10_000


def _deep_ruleset_and_packet(depth):
    """A padded rule-set whose allow rule sits at ``depth``, and a packet it matches."""
    ruleset = padded_ruleset(
        depth, action_rule=service_rule(Action.ALLOW, IpProtocol.TCP, 5001)
    )
    packet = Ipv4Packet(
        src=Ipv4Address("10.0.0.2"),
        dst=Ipv4Address("10.0.0.3"),
        payload=TcpSegment(src_port=40000, dst_port=5001),
    )
    return ruleset, packet


@pytest.mark.parametrize("depth", DEPTHS)
def test_ruleset_evaluation_uncached(benchmark, depth):
    """Linear rule walk (the embedded card's per-packet work)."""
    ruleset, packet = _deep_ruleset_and_packet(depth)

    def evaluate():
        return ruleset.evaluate_linear(packet, Direction.INBOUND)

    result = benchmark(evaluate)
    assert result.rules_traversed == depth


@pytest.mark.parametrize("depth", DEPTHS)
def test_ruleset_evaluation_compiled(benchmark, depth):
    """Compiled lookup: same verdict and charged depth, no loop.

    Against ``test_ruleset_evaluation_uncached`` at the same depth this is
    the compiled classifier's per-lookup speedup.
    """
    ruleset, packet = _deep_ruleset_and_packet(depth)
    classifier = ruleset.compiled_classifier  # compile outside the timing
    flow = packet.flow()

    result = benchmark(classifier.lookup, flow, Direction.INBOUND)
    assert result.rules_traversed == depth
    assert result == ruleset.evaluate_linear(packet, Direction.INBOUND)


def test_ruleset_evaluation_cached(benchmark):
    """The memoised fast path used by the simulation."""
    ruleset, packet = _deep_ruleset_and_packet(64)
    ruleset.evaluate(packet, Direction.INBOUND)  # warm the cache

    result = benchmark(ruleset.evaluate, packet, Direction.INBOUND)
    assert result.rules_traversed == 64


VPG_KEY = b"0123456789abcdef01234567"


def _pure_ack():
    """A pure TCP ACK: its 40 header bytes are exactly what a VPG seal encrypts."""
    return Ipv4Packet(
        src=Ipv4Address("10.0.0.2"),
        dst=Ipv4Address("10.0.0.3"),
        payload=TcpSegment(src_port=40000, dst_port=80, seq=1001, ack=2002, flags=TcpFlags.ACK),
    )


def test_feistel_cbc_encrypt(benchmark):
    """CBC encryption of a pure ACK's 40 header bytes (the VPG seal path)."""
    cipher = FeistelCipher(VPG_KEY)
    plaintext = _pure_ack().to_bytes()
    assert len(plaintext) == 40

    ciphertext = benchmark(cipher.encrypt, plaintext, 1)
    assert cipher.decrypt(ciphertext, 1) == plaintext


def test_feistel_cbc_decrypt(benchmark):
    """CBC decryption of a sealed pure ACK (the VPG open path)."""
    cipher = FeistelCipher(VPG_KEY)
    plaintext = _pure_ack().to_bytes()
    ciphertext = cipher.encrypt(plaintext, 1)

    assert benchmark(cipher.decrypt, ciphertext, 1) == plaintext


def test_vpg_seal_open_roundtrip(benchmark):
    """One pure ACK sealed by one VPG end and opened by the other: cipher, MAC and re-parse."""
    sealer, opener = VpgContext(500, VPG_KEY), VpgContext(500, VPG_KEY)
    inner = _pure_ack()
    src, dst = inner.src, inner.dst

    def roundtrip():
        return opener.open(sealer.seal(inner, src, dst))

    assert benchmark(roundtrip).to_bytes() == inner.to_bytes()


def test_tcp_goodput_simulation_speed(benchmark):
    """Wall time to simulate 0.5 s of line-rate TCP on the testbed."""
    from repro.apps.iperf import IperfClient, IperfServer
    from repro.core.testbed import DeviceKind, Testbed
    from repro.firewall.builders import allow_all

    def simulate():
        bed = Testbed(device=DeviceKind.EFW)
        bed.install_target_policy(allow_all())
        IperfServer(bed.target)
        session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.5)
        bed.run(0.55)
        return session.result().mbps

    mbps = benchmark(simulate)
    assert mbps > 85
