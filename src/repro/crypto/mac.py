"""Message authentication for VPG packets.

A thin wrapper over HMAC-SHA256 truncated to 8 bytes — enough to give the
VPG channel real integrity and sender-authentication semantics (a
receiver rejects tampered or wrong-key packets), which the tests verify.

The keyed HMAC state (the key's inner and outer pads already absorbed)
is built once per key and copied for each tag, so a VPG packet pays for
hashing its own bytes only.
"""

from __future__ import annotations

import functools
import hashlib
import hmac

#: Truncated tag length in bytes.
TAG_SIZE = 8


@functools.lru_cache(maxsize=256)
def _keyed_state(key: bytes) -> hmac.HMAC:
    """The HMAC-SHA256 state keyed with ``key``, before any message byte."""
    return hmac.new(key, digestmod=hashlib.sha256)


def compute_tag(key: bytes, data: bytes) -> bytes:
    """An 8-byte authentication tag over ``data``."""
    if not key:
        raise ValueError("key must be non-empty")
    state = _keyed_state(bytes(key)).copy()
    state.update(data)
    return state.digest()[:TAG_SIZE]


def verify_tag(key: bytes, data: bytes, tag: bytes) -> bool:
    """Constant-time verification of an 8-byte tag."""
    if len(tag) != TAG_SIZE:
        return False
    return hmac.compare_digest(compute_tag(key, data), tag)
