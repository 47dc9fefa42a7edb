"""A small Feistel block cipher.

The ADF's VPGs used hardware 3DES on the NIC.  Re-implementing 3DES
bit-exactly would add nothing to the reproduction (the *cost* of the
cryptography is modelled separately, in simulated time, by the ADF NIC's
cost model); what matters is that the VPG data path performs a *real*
key-dependent, invertible transformation with integrity protection, so
that tests can verify confidentiality/integrity semantics end-to-end.

This is a 16-round Feistel network on 8-byte blocks with round keys
derived from SHA-256, used in CBC mode with PKCS#7 padding and a
deterministic per-packet IV derived from the key and a sequence number.
It is NOT cryptographically strong and must never be used outside this
simulator — see the module-level warning in :mod:`repro.crypto`.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List

BLOCK_SIZE = 8
ROUNDS = 16
_MASK32 = 0xFFFFFFFF
_HALVES = struct.Struct("!II")


class FeistelCipher:
    """A toy 64-bit-block Feistel cipher with CBC mode."""

    def __init__(self, key: bytes):
        if not key:
            raise ValueError("key must be non-empty")
        self.key = bytes(key)
        self._round_keys = self._derive_round_keys(self.key)
        # Round keys two at a time for the CBC kernel; decryption walks
        # the pairs backwards with each pair's keys swapped.
        self._encrypt_pairs = tuple(zip(self._round_keys[0::2], self._round_keys[1::2]))
        self._decrypt_pairs = tuple((k1, k0) for k0, k1 in reversed(self._encrypt_pairs))

    @staticmethod
    def _derive_round_keys(key: bytes) -> List[int]:
        round_keys = []
        material = key
        for round_index in range(ROUNDS):
            material = hashlib.sha256(material + bytes([round_index])).digest()
            round_keys.append(int.from_bytes(material[:4], "big"))
        return round_keys

    @staticmethod
    def _round_function(half: int, round_key: int) -> int:
        mixed = (half ^ round_key) & _MASK32
        mixed = (mixed * 0x9E3779B1 + 0x7F4A7C15) & _MASK32
        mixed ^= mixed >> 15
        mixed = (mixed * 0x85EBCA77) & _MASK32
        mixed ^= mixed >> 13
        return mixed & _MASK32

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        left, right = struct.unpack("!II", block)
        for round_key in self._round_keys:
            left, right = right, left ^ self._round_function(right, round_key)
        return struct.pack("!II", right, left)  # final swap

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        right, left = struct.unpack("!II", block)  # undo final swap
        for round_key in reversed(self._round_keys):
            left, right = right ^ self._round_function(left, round_key), left
        return struct.pack("!II", left, right)

    # ------------------------------------------------------------------
    # CBC mode
    # ------------------------------------------------------------------

    def iv_for_sequence(self, sequence: int) -> bytes:
        """Deterministic 8-byte IV bound to the key and packet sequence."""
        return hashlib.sha256(
            self.key + b"iv" + struct.pack("!Q", sequence & 0xFFFFFFFFFFFFFFFF)
        ).digest()[:BLOCK_SIZE]

    # The CBC loops below are the hot path of every VPG seal and open.
    # They work on 32-bit words: one ``struct`` pass over the whole
    # buffer, the CBC chain carried as two ints, and the round function
    # inlined two rounds per iteration.  Within a pair, ``left ^= F(right)``
    # then ``right ^= F(left)`` is exactly two Feistel rounds with the
    # half swap folded away.  ``encrypt_block``/``decrypt_block`` above
    # are the per-block reference the kernel is tested against.

    def encrypt(self, plaintext: bytes, sequence: int = 0) -> bytes:
        """CBC-encrypt with PKCS#7 padding; IV derived from ``sequence``."""
        padded = _pad(plaintext)
        count = len(padded) // 4
        words = struct.unpack(f"!{count}I", padded)
        chain_left, chain_right = _HALVES.unpack(self.iv_for_sequence(sequence))
        pairs = self._encrypt_pairs
        out = [0] * count
        for index in range(0, count, 2):
            left = words[index] ^ chain_left
            right = words[index + 1] ^ chain_right
            for k0, k1 in pairs:
                mixed = ((right ^ k0) * 0x9E3779B1 + 0x7F4A7C15) & _MASK32
                mixed = ((mixed ^ (mixed >> 15)) * 0x85EBCA77) & _MASK32
                left ^= mixed ^ (mixed >> 13)
                mixed = ((left ^ k1) * 0x9E3779B1 + 0x7F4A7C15) & _MASK32
                mixed = ((mixed ^ (mixed >> 15)) * 0x85EBCA77) & _MASK32
                right ^= mixed ^ (mixed >> 13)
            out[index] = chain_left = right  # final swap
            out[index + 1] = chain_right = left
        return struct.pack(f"!{count}I", *out)

    def decrypt(self, ciphertext: bytes, sequence: int = 0) -> bytes:
        """CBC-decrypt and strip padding; raises ValueError on bad input."""
        if len(ciphertext) == 0 or len(ciphertext) % BLOCK_SIZE:
            raise ValueError("ciphertext length must be a positive block multiple")
        count = len(ciphertext) // 4
        words = struct.unpack(f"!{count}I", ciphertext)
        chain_left, chain_right = _HALVES.unpack(self.iv_for_sequence(sequence))
        pairs = self._decrypt_pairs
        out = [0] * count
        for index in range(0, count, 2):
            right = words[index]  # undo final swap
            left = words[index + 1]
            for k0, k1 in pairs:
                mixed = ((left ^ k0) * 0x9E3779B1 + 0x7F4A7C15) & _MASK32
                mixed = ((mixed ^ (mixed >> 15)) * 0x85EBCA77) & _MASK32
                right ^= mixed ^ (mixed >> 13)
                mixed = ((right ^ k1) * 0x9E3779B1 + 0x7F4A7C15) & _MASK32
                mixed = ((mixed ^ (mixed >> 15)) * 0x85EBCA77) & _MASK32
                left ^= mixed ^ (mixed >> 13)
            out[index] = left ^ chain_left
            out[index + 1] = right ^ chain_right
            chain_left = words[index]
            chain_right = words[index + 1]
        return _unpad(struct.pack(f"!{count}I", *out))


def _pad(data: bytes) -> bytes:
    pad_len = BLOCK_SIZE - (len(data) % BLOCK_SIZE)
    return data + bytes([pad_len]) * pad_len


def _unpad(data: bytes) -> bytes:
    if not data:
        raise ValueError("empty plaintext after decryption")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > BLOCK_SIZE or len(data) < pad_len:
        raise ValueError("invalid padding")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("invalid padding")
    return data[:-pad_len]
