"""Tests for the packet model: sizes, flow tuples, serialization."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.mac import TAG_SIZE
from repro.crypto.vpg import VPG_CLEAR_HEADER, VPG_TAIL_FIELD, VpgContext
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.checksum import internet_checksum, verify_checksum
from repro.net.packet import (
    ArpMessage,
    ArpOp,
    EthernetFrame,
    IcmpMessage,
    IcmpType,
    IpProtocol,
    Ipv4Packet,
    RawPayload,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
)

SRC = Ipv4Address("10.0.0.1")
DST = Ipv4Address("10.0.0.2")


class TestSizes:
    def test_udp_size(self):
        assert UdpDatagram(src_port=1, dst_port=2, payload_size=100).size == 108

    def test_tcp_size(self):
        assert TcpSegment(src_port=1, dst_port=2, payload_size=1460).size == 1480

    def test_icmp_size(self):
        assert IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST, payload_size=56).size == 64

    def test_ipv4_size(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2, payload_size=8))
        assert packet.size == 20 + 8 + 8

    def test_frame_wire_size_includes_header_and_fcs(self):
        packet = Ipv4Packet(
            src=SRC, dst=DST, payload=TcpSegment(src_port=1, dst_port=2, payload_size=1460)
        )
        frame = EthernetFrame(
            src_mac=MacAddress.from_index(1), dst_mac=MacAddress.from_index(2), payload=packet
        )
        assert frame.wire_size == 1518  # full-size frame

    def test_frame_minimum_padding(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=TcpSegment(src_port=1, dst_port=2))
        frame = EthernetFrame(
            src_mac=MacAddress.from_index(1), dst_mac=MacAddress.from_index(2), payload=packet
        )
        # 18 + 40 = 58 < 64: padded to the Ethernet minimum.
        assert frame.wire_size == 64

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            UdpDatagram(src_port=1, dst_port=2, payload_size=-1)

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            TcpSegment(src_port=70000, dst_port=1)

    def test_raw_payload_data_longer_than_size_rejected(self):
        with pytest.raises(ValueError):
            RawPayload(size=2, data=b"abc")


class TestFlowAndAccessors:
    def test_flow_tuple_tcp(self):
        packet = Ipv4Packet(
            src=SRC, dst=DST, payload=TcpSegment(src_port=4000, dst_port=80)
        )
        assert packet.flow() == (IpProtocol.TCP, SRC, 4000, DST, 80)

    def test_flow_tuple_icmp_has_zero_ports(self):
        packet = Ipv4Packet(
            src=SRC, dst=DST, payload=IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST)
        )
        assert packet.flow() == (IpProtocol.ICMP, SRC, 0, DST, 0)

    def test_protocol_inferred_from_payload(self):
        assert Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2)).protocol == IpProtocol.UDP

    def test_raw_payload_requires_explicit_protocol(self):
        with pytest.raises(ValueError):
            Ipv4Packet(src=SRC, dst=DST, payload=RawPayload(size=10))

    def test_typed_accessors(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=TcpSegment(src_port=1, dst_port=2))
        assert packet.tcp is packet.payload
        assert packet.udp is None
        assert packet.icmp is None

    def test_tcp_flag_properties(self):
        syn_ack = TcpSegment(src_port=1, dst_port=2, flags=TcpFlags.SYN | TcpFlags.ACK)
        assert syn_ack.syn and syn_ack.ack_flag
        assert not syn_ack.fin and not syn_ack.rst

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2), ttl=0)

    def test_describe_mentions_endpoints(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(5, 7))
        assert "10.0.0.1:5" in packet.describe()
        assert "UDP" in packet.describe()


class TestSerialization:
    def test_ipv4_header_checksum_is_valid(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2, payload_size=4))
        assert verify_checksum(packet.to_bytes()[:20])

    def test_udp_roundtrip(self):
        packet = Ipv4Packet(
            src=SRC, dst=DST, payload=UdpDatagram(53, 1053, payload_size=11, data=b"hello world")
        )
        parsed = Ipv4Packet.from_bytes(packet.to_bytes())
        assert parsed.flow() == packet.flow()
        assert parsed.udp.data == b"hello world"

    def test_tcp_roundtrip_preserves_header_fields(self):
        segment = TcpSegment(
            src_port=1024,
            dst_port=80,
            seq=12345,
            ack=67890,
            flags=TcpFlags.PSH | TcpFlags.ACK,
            window=4096,
            payload_size=3,
            data=b"GET",
        )
        packet = Ipv4Packet(src=SRC, dst=DST, payload=segment)
        parsed = Ipv4Packet.from_bytes(packet.to_bytes())
        tcp = parsed.tcp
        assert (tcp.seq, tcp.ack, tcp.window) == (12345, 67890, 4096)
        assert tcp.flags == TcpFlags.PSH | TcpFlags.ACK
        assert tcp.data == b"GET"

    def test_icmp_roundtrip_and_checksum(self):
        message = IcmpMessage(
            icmp_type=IcmpType.ECHO_REQUEST, identifier=7, sequence=3, payload_size=8
        )
        raw = message.to_bytes()
        assert verify_checksum(raw)
        parsed = IcmpMessage.from_bytes(raw)
        assert (parsed.identifier, parsed.sequence) == (7, 3)

    def test_size_only_payload_serializes_as_zeros(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2, payload_size=10))
        assert packet.to_bytes()[-10:] == b"\x00" * 10

    def test_truncated_input_rejected(self):
        with pytest.raises(ValueError):
            Ipv4Packet.from_bytes(b"\x45\x00\x00")

    def test_non_ipv4_rejected(self):
        with pytest.raises(ValueError):
            Ipv4Packet.from_bytes(b"\x60" + b"\x00" * 30)

    @given(
        src_port=st.integers(0, 65535),
        dst_port=st.integers(0, 65535),
        seq=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=64),
        extra=st.integers(0, 512),
    )
    def test_tcp_roundtrip_property(self, src_port, dst_port, seq, payload, extra):
        segment = TcpSegment(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            payload_size=len(payload) + extra,
            data=payload,
        )
        packet = Ipv4Packet(src=SRC, dst=DST, payload=segment)
        parsed = Ipv4Packet.from_bytes(packet.to_bytes())
        assert parsed.tcp.seq == seq
        assert parsed.tcp.payload_size == len(payload) + extra
        assert parsed.tcp.data[: len(payload)] == payload

    @given(payload=st.binary(max_size=128))
    def test_udp_roundtrip_property(self, payload):
        packet = Ipv4Packet(
            src=SRC,
            dst=DST,
            payload=UdpDatagram(9, 10, payload_size=len(payload), data=payload),
        )
        parsed = Ipv4Packet.from_bytes(packet.to_bytes())
        assert parsed.udp.data == payload


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        checksum = internet_checksum(data)
        assert checksum == 0xFFFF - ((0x0001 + 0xF203 + 0xF4F5 + 0xF6F7) % 0xFFFF)

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_verify_accepts_valid(self):
        data = b"\x12\x34\x56\x78"
        checksum = internet_checksum(data)
        stamped = data + checksum.to_bytes(2, "big")
        assert verify_checksum(stamped)

    def test_verify_rejects_corruption(self):
        data = b"\x12\x34\x56\x78"
        checksum = internet_checksum(data)
        stamped = bytearray(data + checksum.to_bytes(2, "big"))
        stamped[0] ^= 0xFF
        assert not verify_checksum(bytes(stamped))

    @given(st.binary(min_size=2, max_size=256).filter(lambda b: len(b) % 2 == 0))
    def test_checksum_self_verifies_property(self, data):
        # The Internet checksum self-verifies only when the checksum field
        # lands on a 16-bit word boundary, as real protocol headers ensure.
        checksum = internet_checksum(data)
        assert verify_checksum(data + checksum.to_bytes(2, "big"))


# ---------------------------------------------------------------------------
# Invariants of the sizes and flag masks fixed at construction
# ---------------------------------------------------------------------------

MAC_A, MAC_B = MacAddress.from_index(1), MacAddress.from_index(2)


def _wire(ip_size):
    """Ethernet header 14 + FCS 4, padded to the 64-byte minimum frame."""
    return max(14 + ip_size + 4, 64)


@st.composite
def l4_payloads(draw, max_data=48, max_extra=2000):
    """(payload, its header + payload size, protocol) for every L4 type."""
    kind = draw(st.sampled_from(["tcp", "udp", "icmp", "raw"]))
    data = draw(st.binary(max_size=max_data))
    length = len(data) + draw(st.integers(0, max_extra))
    if kind == "tcp":
        flags = TcpFlags(draw(st.integers(0, 0x3F)))
        return TcpSegment(1024, 80, flags=flags, payload_size=length, data=data), 20 + length, None
    if kind == "udp":
        return UdpDatagram(53, 1053, payload_size=length, data=data), 8 + length, None
    if kind == "icmp":
        message = IcmpMessage(IcmpType.ECHO_REQUEST, payload_size=length, data=data)
        return message, 8 + length, None
    return RawPayload(size=length, data=data), length, IpProtocol.VPG


def _framed(payload, protocol):
    packet = Ipv4Packet(src=SRC, dst=DST, payload=payload, protocol=protocol)
    return packet, EthernetFrame(src_mac=MAC_A, dst_mac=MAC_B, payload=packet)


class TestSizeInvariants:
    @given(l4_payloads())
    def test_stored_sizes_match_the_formula(self, drawn):
        payload, l4_size, protocol = drawn
        packet, frame = _framed(payload, protocol)
        assert payload.size == l4_size
        assert packet.size == 20 + l4_size
        assert frame.wire_size == _wire(20 + l4_size)

    @given(l4_payloads(max_data=8, max_extra=24))
    def test_formula_at_and_below_the_minimum_frame(self, drawn):
        # Unpadded frames of 38 (raw) to 90 (TCP) bytes straddle the minimum.
        payload, l4_size, protocol = drawn
        packet, frame = _framed(payload, protocol)
        raw = 14 + 20 + l4_size + 4
        assert frame.wire_size == (64 if raw <= 64 else raw)

    @given(l4_payloads(), st.integers(0, 1500))
    def test_formula_holds_after_replace(self, drawn, new_length):
        payload, _, protocol = drawn
        packet, frame = _framed(payload, protocol)
        if isinstance(payload, RawPayload):
            resized = replace(payload, size=new_length, data=b"")
            l4_size = new_length
        else:
            resized = replace(payload, payload_size=new_length, data=b"")
            l4_size = payload.HEADER_SIZE + new_length
        new_packet = replace(packet, payload=resized)
        new_frame = replace(frame, payload=new_packet)
        assert new_packet.size == 20 + l4_size
        assert new_frame.wire_size == _wire(20 + l4_size)
        # The originals keep their own sizes.
        assert frame.wire_size == _wire(packet.size)

    @given(l4_payloads())
    def test_formula_holds_after_a_wire_round_trip(self, drawn):
        payload, l4_size, protocol = drawn
        packet, frame = _framed(payload, protocol)
        parsed = Ipv4Packet.from_bytes(packet.to_bytes())
        assert parsed.size == packet.size == 20 + l4_size
        assert parsed.payload.size == l4_size
        reframed = EthernetFrame(src_mac=MAC_A, dst_mac=MAC_B, payload=parsed)
        assert reframed.wire_size == frame.wire_size == _wire(20 + l4_size)

    def test_arp_frame(self):
        message = ArpMessage(ArpOp.REQUEST, MAC_A, SRC, MacAddress(0), DST)
        parsed = ArpMessage.from_bytes(message.to_bytes())
        assert message.size == parsed.size == 28
        frame = EthernetFrame(src_mac=MAC_A, dst_mac=MAC_B, payload=parsed, ethertype=0x0806)
        assert frame.wire_size == 64  # 14 + 28 + 4 = 46, padded

    @settings(max_examples=40, deadline=None)
    @given(l4_payloads(max_extra=600))
    def test_vpg_sealed_packet(self, drawn):
        payload, l4_size, protocol = drawn
        inner = Ipv4Packet(src=SRC, dst=DST, payload=payload, protocol=protocol)
        outer = VpgContext(500, b"0123456789abcdef01234567").seal(inner, SRC, DST)
        sealed = outer.payload
        # The ciphertext covers the inner packet's real bytes, PKCS#7-padded
        # to whole 8-byte blocks; the size-only tail travels as clear zeros.
        real = 20 + l4_size - sealed.inner_tail
        assert len(sealed.ciphertext) == (real // 8 + 1) * 8
        sealed_size = VPG_CLEAR_HEADER + VPG_TAIL_FIELD + len(sealed.ciphertext)
        sealed_size += sealed.inner_tail + TAG_SIZE
        assert outer.size == 20 + sealed_size
        frame = EthernetFrame(src_mac=MAC_A, dst_mac=MAC_B, payload=outer)
        assert frame.wire_size == _wire(20 + sealed_size)
        assert Ipv4Packet.from_bytes(outer.to_bytes()).size == outer.size


class TestFlagMasks:
    @pytest.mark.parametrize("bits", range(64))
    def test_flag_properties_match_enum_arithmetic(self, bits):
        flags = TcpFlags(bits)
        for segment in (
            TcpSegment(1, 2, flags=flags),
            replace(TcpSegment(1, 2), flags=flags),
            Ipv4Packet.from_bytes(
                Ipv4Packet(src=SRC, dst=DST, payload=TcpSegment(1, 2, flags=flags)).to_bytes()
            ).tcp,
        ):
            assert isinstance(segment.flags, TcpFlags)
            assert segment.flags == flags
            assert segment.syn == bool(flags & TcpFlags.SYN)
            assert segment.ack_flag == bool(flags & TcpFlags.ACK)
            assert segment.fin == bool(flags & TcpFlags.FIN)
            assert segment.rst == bool(flags & TcpFlags.RST)
