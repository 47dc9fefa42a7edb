"""Tests for the crypto substrate: Feistel cipher, MAC, VPG encapsulation."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.feistel import BLOCK_SIZE, FeistelCipher
from repro.crypto.keys import KEY_SIZE, VpgKeyStore
from repro.crypto.mac import TAG_SIZE, compute_tag, verify_tag
from repro.crypto.vpg import (
    VpgAuthError,
    VpgContext,
    VpgDecodeError,
    VpgSealedPayload,
)
from repro.net.addresses import Ipv4Address
from repro.net.packet import (
    IcmpMessage,
    IcmpType,
    IpProtocol,
    Ipv4Packet,
    RawPayload,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
)

SRC = Ipv4Address("10.0.0.2")
DST = Ipv4Address("10.0.0.3")
KEY = b"0123456789abcdef01234567"


class TestFeistelCipher:
    def test_block_roundtrip(self):
        cipher = FeistelCipher(KEY)
        block = b"\x01\x02\x03\x04\x05\x06\x07\x08"
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_block_encryption_changes_bytes(self):
        cipher = FeistelCipher(KEY)
        block = b"\x00" * BLOCK_SIZE
        assert cipher.encrypt_block(block) != block

    def test_wrong_block_size_rejected(self):
        cipher = FeistelCipher(KEY)
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"short")
        with pytest.raises(ValueError):
            cipher.decrypt_block(b"toolongtoolong")

    def test_cbc_roundtrip(self):
        cipher = FeistelCipher(KEY)
        plaintext = b"The quick brown fox jumps over the lazy dog"
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    def test_cbc_output_is_block_aligned(self):
        cipher = FeistelCipher(KEY)
        assert len(cipher.encrypt(b"x")) % BLOCK_SIZE == 0

    def test_different_keys_give_different_ciphertexts(self):
        plaintext = b"same plaintext bytes"
        a = FeistelCipher(b"key-a").encrypt(plaintext)
        b = FeistelCipher(b"key-b").encrypt(plaintext)
        assert a != b

    def test_sequence_binds_iv(self):
        cipher = FeistelCipher(KEY)
        plaintext = b"identical plaintext"
        assert cipher.encrypt(plaintext, sequence=1) != cipher.encrypt(plaintext, sequence=2)

    def test_wrong_key_fails_to_decrypt(self):
        ciphertext = FeistelCipher(b"key-a").encrypt(b"secret payload here!")
        wrong = FeistelCipher(b"key-b")
        try:
            recovered = wrong.decrypt(ciphertext)
        except ValueError:
            return  # padding check caught it
        assert recovered != b"secret payload here!"

    def test_bad_ciphertext_length_rejected(self):
        cipher = FeistelCipher(KEY)
        with pytest.raises(ValueError):
            cipher.decrypt(b"12345")
        with pytest.raises(ValueError):
            cipher.decrypt(b"")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            FeistelCipher(b"")

    @given(st.binary(max_size=512), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, plaintext, sequence):
        cipher = FeistelCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(plaintext, sequence), sequence) == plaintext


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def _reference_encrypt(cipher, plaintext, sequence):
    """CBC composed from the single-block reference, one block at a time."""
    pad_len = BLOCK_SIZE - len(plaintext) % BLOCK_SIZE
    padded = plaintext + bytes([pad_len]) * pad_len
    previous = cipher.iv_for_sequence(sequence)
    out = b""
    for offset in range(0, len(padded), BLOCK_SIZE):
        previous = cipher.encrypt_block(_xor(padded[offset : offset + BLOCK_SIZE], previous))
        out += previous
    return out


def _reference_decrypt(cipher, ciphertext, sequence):
    previous = cipher.iv_for_sequence(sequence)
    out = b""
    for offset in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[offset : offset + BLOCK_SIZE]
        out += _xor(cipher.decrypt_block(block), previous)
        previous = block
    pad_len = out[-1]
    if not 1 <= pad_len <= BLOCK_SIZE or out[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("invalid padding")
    return out[:-pad_len]


class TestReferenceEquivalence:
    """The CBC kernel equals CBC built from ``encrypt_block``/``decrypt_block``."""

    @given(
        key=st.binary(min_size=1, max_size=32),
        plaintext=st.binary(max_size=512),
        sequence=st.integers(0, 2**64 - 1),
    )
    def test_encrypt_decrypt_match_block_reference(self, key, plaintext, sequence):
        cipher = FeistelCipher(key)
        ciphertext = cipher.encrypt(plaintext, sequence)
        assert ciphertext == _reference_encrypt(cipher, plaintext, sequence)
        assert cipher.decrypt(ciphertext, sequence) == plaintext
        assert _reference_decrypt(cipher, ciphertext, sequence) == plaintext

    @given(
        key=st.binary(min_size=1, max_size=32),
        blocks=st.binary(min_size=BLOCK_SIZE, max_size=512).map(
            lambda data: data[: len(data) - len(data) % BLOCK_SIZE]
        ),
        sequence=st.integers(0, 2**64 - 1),
    )
    def test_decrypt_of_arbitrary_blocks_matches_reference(self, key, blocks, sequence):
        # Arbitrary ciphertext mostly decrypts to bad padding: both sides
        # must then agree on rejecting it, not just on the happy path.
        cipher = FeistelCipher(key)
        try:
            expected = _reference_decrypt(cipher, blocks, sequence)
        except ValueError:
            with pytest.raises(ValueError):
                cipher.decrypt(blocks, sequence)
        else:
            assert cipher.decrypt(blocks, sequence) == expected


class TestMac:
    def test_tag_length(self):
        assert len(compute_tag(KEY, b"data")) == TAG_SIZE

    def test_verify_accepts_valid_tag(self):
        tag = compute_tag(KEY, b"data")
        assert verify_tag(KEY, b"data", tag)

    def test_verify_rejects_tampered_data(self):
        tag = compute_tag(KEY, b"data")
        assert not verify_tag(KEY, b"dato", tag)

    def test_verify_rejects_wrong_key(self):
        tag = compute_tag(b"key-a", b"data")
        assert not verify_tag(b"key-b", b"data", tag)

    def test_verify_rejects_wrong_length_tag(self):
        assert not verify_tag(KEY, b"data", b"short")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            compute_tag(b"", b"data")

    @given(st.binary(max_size=256))
    def test_tag_is_deterministic(self, data):
        assert compute_tag(KEY, data) == compute_tag(KEY, data)


class TestVpgContext:
    def _context_pair(self, vpg_id=7):
        store = VpgKeyStore()
        return store.context_for(vpg_id), store.context_for(vpg_id)

    def test_tcp_seal_open_roundtrip(self):
        sealer, opener = self._context_pair()
        inner = Ipv4Packet(
            src=SRC,
            dst=DST,
            payload=TcpSegment(src_port=1000, dst_port=80, seq=42, payload_size=1400, data=b"GET /"),
        )
        outer = sealer.seal(inner, SRC, DST)
        assert outer.protocol == IpProtocol.VPG
        opened = opener.open(outer)
        assert opened.flow() == inner.flow()
        assert opened.tcp.seq == 42
        assert opened.tcp.payload_size == 1400
        assert opened.tcp.data == b"GET /"

    def test_udp_and_icmp_roundtrip(self):
        sealer, opener = self._context_pair()
        for payload in (
            UdpDatagram(src_port=53, dst_port=53, payload_size=120),
            IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST, payload_size=56),
        ):
            inner = Ipv4Packet(src=SRC, dst=DST, payload=payload)
            opened = opener.open(sealer.seal(inner, SRC, DST))
            assert opened.payload.size == payload.size

    def test_raw_payload_without_parseable_header_rejected_on_open(self):
        # The decapsulation side re-parses the decrypted inner headers;
        # a raw payload that does not decode as its declared protocol is
        # reported as a decode failure, not silently accepted.
        sealer, opener = self._context_pair()
        inner = Ipv4Packet(
            src=SRC,
            dst=DST,
            payload=RawPayload(size=500, data=b"prefix"),
            protocol=IpProtocol.UDP,
        )
        with pytest.raises(VpgDecodeError):
            opener.open(sealer.seal(inner, SRC, DST))

    def test_outer_size_accounts_for_overhead_not_payload_blowup(self):
        sealer, _ = self._context_pair()
        inner = Ipv4Packet(
            src=SRC, dst=DST, payload=TcpSegment(src_port=1, dst_port=2, payload_size=1400)
        )
        outer = sealer.seal(inner, SRC, DST)
        overhead = outer.size - inner.size
        assert 0 < overhead < 120  # clear header + cipher padding + tag

    def test_headers_are_encrypted_on_the_wire(self):
        sealer, _ = self._context_pair()
        inner = Ipv4Packet(
            src=SRC, dst=DST, payload=TcpSegment(src_port=4567, dst_port=8901)
        )
        outer = sealer.seal(inner, SRC, DST)
        wire = outer.payload.to_bytes()
        # The inner ports must not appear in clear anywhere in the payload.
        import struct

        assert struct.pack("!H", 4567) not in wire[:12]
        assert outer.flow()[2] == 0 and outer.flow()[4] == 0  # no ports visible

    def test_tampered_ciphertext_rejected(self):
        sealer, opener = self._context_pair()
        inner = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2, payload_size=32))
        outer = sealer.seal(inner, SRC, DST)
        sealed = outer.payload
        sealed.ciphertext = bytes(byte ^ 0xFF for byte in sealed.ciphertext)
        with pytest.raises(VpgAuthError):
            opener.open(outer)
        assert opener.auth_failures == 1

    def test_wrong_group_key_rejected(self):
        sealer = VpgKeyStore(b"master-a").context_for(7)
        opener = VpgKeyStore(b"master-b").context_for(7)
        inner = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2))
        with pytest.raises(VpgAuthError):
            opener.open(sealer.seal(inner, SRC, DST))

    def test_spi_mismatch_rejected(self):
        store = VpgKeyStore()
        sealer = store.context_for(7)
        opener = store.context_for(8)
        inner = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2))
        with pytest.raises(VpgDecodeError):
            opener.open(sealer.seal(inner, SRC, DST))

    def test_non_vpg_packet_rejected(self):
        _, opener = self._context_pair()
        plain = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2))
        with pytest.raises(VpgDecodeError):
            opener.open(plain)

    def test_sequence_increments_per_packet(self):
        sealer, _ = self._context_pair()
        inner = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2))
        first = sealer.seal(inner, SRC, DST)
        second = sealer.seal(inner, SRC, DST)
        assert second.payload.sequence == first.payload.sequence + 1
        assert first.payload.ciphertext != second.payload.ciphertext

    @given(
        payload_size=st.integers(0, 1460),
        data=st.binary(max_size=64),
        sport=st.integers(0, 65535),
        dport=st.integers(0, 65535),
    )
    def test_seal_open_roundtrip_property(self, payload_size, data, sport, dport):
        store = VpgKeyStore()
        sealer = store.context_for(3)
        opener = store.context_for(3)
        size = max(payload_size, len(data))
        inner = Ipv4Packet(
            src=SRC,
            dst=DST,
            payload=TcpSegment(src_port=sport, dst_port=dport, payload_size=size, data=data),
        )
        opened = opener.open(sealer.seal(inner, SRC, DST))
        assert opened.flow() == inner.flow()
        assert opened.tcp.payload_size == size
        assert opened.tcp.data[: len(data)] == data


class TestKeyStore:
    def test_keys_are_deterministic(self):
        assert VpgKeyStore(b"m").key_for(1) == VpgKeyStore(b"m").key_for(1)

    def test_keys_differ_per_group(self):
        store = VpgKeyStore()
        assert store.key_for(1) != store.key_for(2)

    def test_keys_differ_per_master(self):
        assert VpgKeyStore(b"a").key_for(1) != VpgKeyStore(b"b").key_for(1)

    def test_key_length(self):
        assert len(VpgKeyStore().key_for(9)) == KEY_SIZE

    def test_known_vpgs_sorted(self):
        store = VpgKeyStore()
        store.key_for(5)
        store.key_for(2)
        assert store.known_vpgs() == [2, 5]

    def test_empty_master_rejected(self):
        with pytest.raises(ValueError):
            VpgKeyStore(b"")

    def test_bad_vpg_id_rejected(self):
        with pytest.raises(ValueError):
            VpgContext(-1, KEY)


# ----------------------------------------------------------------------
# Known-answer vectors, recorded from the block-at-a-time CBC loop that
# preceded the word-level kernel.  Any change to the cipher, the IV
# derivation, the MAC or the VPG wire layout shows up here as a mismatch.
# ----------------------------------------------------------------------

_KAT_KEYS = {"short": b"k", "long": KEY}
_KAT_LENGTHS = (0, 1, 7, 8, 9, 40, 64, 200)
_KAT_SEQUENCES = (0, 1, 2**32 + 5)


def _kat_plaintext(length):
    return bytes(index * 7 & 0xFF for index in range(length))


def _kat_segment(kind):
    if kind == "ack":
        return TcpSegment(src_port=40000, dst_port=80, seq=1001, ack=2002, flags=TcpFlags.ACK)
    return TcpSegment(
        src_port=40000,
        dst_port=80,
        seq=1001,
        ack=2002,
        flags=TcpFlags.ACK | TcpFlags.PSH,
        payload_size=18,
        data=b"GET / HTTP/1.0\r\n\r\n",
    )


_CBC_VECTORS = {
    ("short", 0, 0): "af9effea29a53fff",
    ("short", 1, 0): "481ee5c5d1d97c8f",
    ("short", 7, 0): "df2575813228e530",
    ("short", 8, 0): "eef050dd756119ff5da66c11dd715206",
    ("short", 9, 0): "eef050dd756119ffec687fc45abfdcdd",
    ("short", 40, 0): (
        "eef050dd756119ff0ff9e06606fdf65c2fcfcd409922be7b595feab96cc51599"
        "4c4363da43f1d28628ed2b84b878803a"
    ),
    ("short", 64, 0): (
        "eef050dd756119ff0ff9e06606fdf65c2fcfcd409922be7b595feab96cc51599"
        "4c4363da43f1d286bbe565c9aaeea00a3e58f54a0408fe0d4883a36b4c079f48"
        "6cf233cb51a54855"
    ),
    ("short", 200, 0): (
        "eef050dd756119ff0ff9e06606fdf65c2fcfcd409922be7b595feab96cc51599"
        "4c4363da43f1d286bbe565c9aaeea00a3e58f54a0408fe0d4883a36b4c079f48"
        "dff8664e204f138f7f576b2b203f58c160da1ce881accb16694d4d1704561c21"
        "cfa49b215275081552abc4b7c2950b55dc1b4fb2f4792ff0b13e63a7b0776891"
        "09fd7d92feace3df040417da4a739be51e51abb93ce3d0604f96f4bfe1eb0d49"
        "8ec2a340fcb736214cd55162a463125413f4333926972f98a930b2bd82882944"
        "0997354986e3fd042be6683147492952"
    ),
    ("short", 0, 1): "e914ee70ee01c9c8",
    ("short", 1, 1): "4f887d6657ed8fc5",
    ("short", 7, 1): "f3b54a607d19a6f2",
    ("short", 8, 1): "a3fcac170f3d5da063e5673aa1a8d2cd",
    ("short", 9, 1): "a3fcac170f3d5da0cb84c00ea7b4a2b3",
    ("short", 40, 1): (
        "a3fcac170f3d5da0e4e3ca8bbb48b19ee6c89819bb4ad24f130852c75b0b26d3"
        "3d9b20e722d7bfe950ca5237933ba02a"
    ),
    ("short", 64, 1): (
        "a3fcac170f3d5da0e4e3ca8bbb48b19ee6c89819bb4ad24f130852c75b0b26d3"
        "3d9b20e722d7bfe91c628f8ebfddb852c5881bb9f0b92e18bb37f29c7ef78ba5"
        "f5bc64557e6b934e"
    ),
    ("short", 200, 1): (
        "a3fcac170f3d5da0e4e3ca8bbb48b19ee6c89819bb4ad24f130852c75b0b26d3"
        "3d9b20e722d7bfe91c628f8ebfddb852c5881bb9f0b92e18bb37f29c7ef78ba5"
        "70d2775ee5a411ce966e652526ef06f6cfae15ebe8b13e2061ce75762698d46d"
        "af55523949a9de3c50dbdfa35699b4d6d1a0c2f6520d91ba433eb086106b7d65"
        "140709982e9e346baf13d28871e1c0aeddd89328e8b71dcf22015069609eef63"
        "c5d40653f5d3f82cc6b1511320936c471811973e33eb96cc9149fb91f425aaa9"
        "cf11db59ce9975e8f33d29d51a3156e8"
    ),
    ("short", 0, 2**32 + 5): "251937a48547b5d6",
    ("short", 1, 2**32 + 5): "5e6644f70554a8cc",
    ("short", 7, 2**32 + 5): "e0f476c6f23d812f",
    ("short", 8, 2**32 + 5): "5b26e0af82d16970c0d02cf336fde90a",
    ("short", 9, 2**32 + 5): "5b26e0af82d16970763ff3ad45224b29",
    ("short", 40, 2**32 + 5): (
        "5b26e0af82d16970163ce6f5a827e1ab112f84d6a497af8a1de09a0061f0c282"
        "e49bc783bc564363e789f5ad1015696d"
    ),
    ("short", 64, 2**32 + 5): (
        "5b26e0af82d16970163ce6f5a827e1ab112f84d6a497af8a1de09a0061f0c282"
        "e49bc783bc56436370c9acab1dab1d988ef2207121a86c672a2ea5a0ade3a7cd"
        "69223361956ddebb"
    ),
    ("short", 200, 2**32 + 5): (
        "5b26e0af82d16970163ce6f5a827e1ab112f84d6a497af8a1de09a0061f0c282"
        "e49bc783bc56436370c9acab1dab1d988ef2207121a86c672a2ea5a0ade3a7cd"
        "7f61b37358b1130b0851e3d9b183112c508c6d4e43b58fdfe0fabb86339e0c58"
        "066cfce043a1597570e43ba8caae30e2e0320f7df70fdc1a87e01006b847c775"
        "e09b765c17963e2eccac92d29dd3dab9788793950b5ae9b51b63c3032838e78f"
        "28e93f5ef22c89a5079a2e624b9d410b53435fea10665724c00c1ca8737bca05"
        "9ab2d202954ee13a98fe7d2e907b2ce1"
    ),
    ("long", 0, 0): "c332a6fde9c371a7",
    ("long", 1, 0): "02354c297d41a716",
    ("long", 7, 0): "ba1c6d20700d5036",
    ("long", 8, 0): "cfd5bba70321daa7b24e65f907aba7be",
    ("long", 9, 0): "cfd5bba70321daa7ba2fc91c99c58398",
    ("long", 40, 0): (
        "cfd5bba70321daa7e9a6c212d8e7bbade13b63b94ca457c0ffa998daf6457b99"
        "cac33af71b7403fc10e53e31d78fed4e"
    ),
    ("long", 64, 0): (
        "cfd5bba70321daa7e9a6c212d8e7bbade13b63b94ca457c0ffa998daf6457b99"
        "cac33af71b7403fc65528b92d7c336029fe46265a1608660571caf81f58702c2"
        "cc470d38cdf517ec"
    ),
    ("long", 200, 0): (
        "cfd5bba70321daa7e9a6c212d8e7bbade13b63b94ca457c0ffa998daf6457b99"
        "cac33af71b7403fc65528b92d7c336029fe46265a1608660571caf81f58702c2"
        "fec14d9a14b07590cafae51d87977239bf0dc247f215e4d81ea7e492ee26efb6"
        "efb104a61c251fc8c6cb2ac0f322c9776bd8409a98eb33b694c64d939ce77725"
        "8723d00b3261224d14bc4316f6680f0055d3c9253368fdddb925e46eef73050c"
        "c088c7923d9a7858dc88df0f5ca5f1ce2474c7d3249554d2d474ec9c080d4328"
        "73a0d611adddd7ef7a33e06f20daf48c"
    ),
    ("long", 0, 1): "ea20feb3783c661d",
    ("long", 1, 1): "ddad9a2ffdd0870e",
    ("long", 7, 1): "53162cda39d792ad",
    ("long", 8, 1): "84a0ac0c6331f1207535336cbb493e2a",
    ("long", 9, 1): "84a0ac0c6331f120465d37803990e4ab",
    ("long", 40, 1): (
        "84a0ac0c6331f12013bb2db007c20233a367b70942aa4871d7fe4a0291901b67"
        "be81b9ecc0031c69943f85a30849f097"
    ),
    ("long", 64, 1): (
        "84a0ac0c6331f12013bb2db007c20233a367b70942aa4871d7fe4a0291901b67"
        "be81b9ecc0031c69f40e6a4e3b51b1f75e5e6e3daeb9bf9e295b3f8e435aadc8"
        "f0ace41501ede4a0"
    ),
    ("long", 200, 1): (
        "84a0ac0c6331f12013bb2db007c20233a367b70942aa4871d7fe4a0291901b67"
        "be81b9ecc0031c69f40e6a4e3b51b1f75e5e6e3daeb9bf9e295b3f8e435aadc8"
        "1f67ea5e894d7aae97bcfc7a972397979126c2845e799905e38c4bb5f52492b6"
        "088989b992b17c3ac215d98e2e9c1d53f1811084a4096e3c116ccfb0d618b2d2"
        "d470c8b0924d6aafe2f7aae89680964992ca32cef0011cb345cc5e26721e51cd"
        "6407942c473fc96027546de1fb62977c14d0c064295060a7e2da948e03c59e85"
        "492244193ee11c8a07a52a10bd7d9874"
    ),
    ("long", 0, 2**32 + 5): "deeed922aebaa548",
    ("long", 1, 2**32 + 5): "72b93b889eefbf83",
    ("long", 7, 2**32 + 5): "9a58f1493982050e",
    ("long", 8, 2**32 + 5): "9e8fd0b67e8fff359a50beb63ac5f2b3",
    ("long", 9, 2**32 + 5): "9e8fd0b67e8fff35d2793caa59205d9b",
    ("long", 40, 2**32 + 5): (
        "9e8fd0b67e8fff35a4a6dd1e6b7f0931a9f05249d7cff7a36dcd5e4dedfd075b"
        "dfc3a6f74217ed7501c385d25470d763"
    ),
    ("long", 64, 2**32 + 5): (
        "9e8fd0b67e8fff35a4a6dd1e6b7f0931a9f05249d7cff7a36dcd5e4dedfd075b"
        "dfc3a6f74217ed75ea9823e379f9f36b5a5d94295234591a03772499d2bdc002"
        "4ec65234d4f2986e"
    ),
    ("long", 200, 2**32 + 5): (
        "9e8fd0b67e8fff35a4a6dd1e6b7f0931a9f05249d7cff7a36dcd5e4dedfd075b"
        "dfc3a6f74217ed75ea9823e379f9f36b5a5d94295234591a03772499d2bdc002"
        "ec9a45db92fb887a6755281e9f3b89eb71df02c1ed933a2fe72029c777f37f64"
        "8d3aa089e7e95240dc5d00db6f3e3fbd99cdf4525955224c4bce312f72d5c4d4"
        "dd570d6c50a560cce76e6755547adc1059f25e37edd7229cc844700d154dfea2"
        "67347677037cb4e419370e45cd71b8e1c4950ff2fe240ac7a81bb9e9f99fafc4"
        "411fc64eeb13f6f26cf788aded525302"
    ),
}
_TAG_VECTORS = {
    ("short", 0): "8bb990c40a7d61cb",
    ("short", 1): "679f05c0f197b486",
    ("short", 7): "ea48ba1e6c5adb70",
    ("short", 8): "7c70584075d3408e",
    ("short", 9): "99cd2073989d4647",
    ("short", 40): "4f775a2194fa7115",
    ("short", 64): "05bb7bda60d72f48",
    ("short", 200): "6835b5131fd4cbd5",
    ("long", 0): "4ef1ed201db9f6bd",
    ("long", 1): "a250b2f64a51e793",
    ("long", 7): "baa449ac14117858",
    ("long", 8): "a8e4874eb91c6a1d",
    ("long", 9): "c678aa40a1bb1779",
    ("long", 40): "12170ea05e6d1737",
    ("long", 64): "d99657c17b61349d",
    ("long", 200): "e96550cb19a41b64",
}
_SEAL_VECTORS = {
    ("short", "ack"): (
        "000001f4000000010000dfe1adef221f338499a3ec5b6197a3f60a66fd7f2f70"
        "f577250895f5be762247288e9350ad92378cd3cc9006b0e8dd25addf73df4851"
        "5b6a"
    ),
    ("short", "get"): (
        "000001f40000000100008d5cf1ce37f7e6b4637e4e70a627186fc7d46ef2f9e6"
        "6ed3442b54f7cf06d3d81b90ea324306ad4ee07e10f943a5370263e0e8fe25df"
        "fa443f0e47ab9aa78cae8389581ffc40a81a"
    ),
    ("long", "ack"): (
        "000001f40000000100009f2e57dfd2fb81456ebbcc8555731b6a212d22c9f8c7"
        "415c468aac3f0e6978231b01d44b3ba598f0cee719ddf99f5a928020a13ce19a"
        "3ce7"
    ),
    ("long", "get"): (
        "000001f40000000100006c054c6aeadec947d64b18328c0cca912dde1827b64b"
        "1d2d588347a0973738a30cd0db486a243d5ed89cf0af95d8d1c6cfbe3a9c0fda"
        "129fcb3d701e1958fbfe1f1403078511c3f8"
    ),
}


class TestKnownAnswers:
    @pytest.mark.parametrize("name", sorted(_KAT_KEYS))
    @pytest.mark.parametrize("sequence", _KAT_SEQUENCES)
    @pytest.mark.parametrize("length", _KAT_LENGTHS)
    def test_cbc_encrypt(self, name, length, sequence):
        cipher = FeistelCipher(_KAT_KEYS[name])
        plaintext = _kat_plaintext(length)
        ciphertext = cipher.encrypt(plaintext, sequence)
        assert ciphertext.hex() == _CBC_VECTORS[(name, length, sequence)]
        assert cipher.decrypt(ciphertext, sequence) == plaintext

    @pytest.mark.parametrize("name", sorted(_KAT_KEYS))
    @pytest.mark.parametrize("length", _KAT_LENGTHS)
    def test_compute_tag(self, name, length):
        tag = compute_tag(_KAT_KEYS[name], _kat_plaintext(length))
        assert tag.hex() == _TAG_VECTORS[(name, length)]

    @pytest.mark.parametrize("name", sorted(_KAT_KEYS))
    @pytest.mark.parametrize("kind", ["ack", "get"])
    def test_vpg_seal_wire_bytes(self, name, kind):
        inner = Ipv4Packet(src=SRC, dst=DST, payload=_kat_segment(kind))
        outer = VpgContext(500, _KAT_KEYS[name]).seal(inner, SRC, DST)
        assert outer.payload.to_bytes().hex() == _SEAL_VECTORS[(name, kind)]
        opened = VpgContext(500, _KAT_KEYS[name]).open(outer)
        assert opened.to_bytes() == inner.to_bytes()
