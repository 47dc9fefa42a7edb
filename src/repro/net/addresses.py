"""MAC and IPv4 address value types.

Both types are immutable, hashable, ordered, and convert cleanly to and
from their canonical text and integer representations, so they can be used
as dictionary keys in forwarding tables and firewall rules.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Union


@total_ordering
class MacAddress:
    """A 48-bit IEEE 802 MAC address."""

    __slots__ = ("_value",)

    MAX = (1 << 48) - 1

    def __init__(self, value: Union[int, str, "MacAddress"]):
        if isinstance(value, MacAddress):
            self._value = value._value
            return
        if isinstance(value, str):
            parts = value.replace("-", ":").split(":")
            if len(parts) != 6:
                raise ValueError(f"malformed MAC address: {value!r}")
            try:
                octets = [int(part, 16) for part in parts]
            except ValueError as exc:
                raise ValueError(f"malformed MAC address: {value!r}") from exc
            if any(octet < 0 or octet > 255 for octet in octets):
                raise ValueError(f"malformed MAC address: {value!r}")
            self._value = int.from_bytes(bytes(octets), "big")
            return
        value = int(value)
        if value < 0 or value > self.MAX:
            raise ValueError(f"MAC address out of range: {value}")
        self._value = value

    @classmethod
    def from_index(cls, index: int) -> "MacAddress":
        """Deterministic locally-administered address for host ``index``."""
        if index < 0 or index > 0xFFFFFF:
            raise ValueError(f"host index out of range: {index}")
        return cls(0x02_00_00_000000 | index)

    def __int__(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        """Big-endian 6-byte wire representation."""
        return self._value.to_bytes(6, "big")

    @property
    def is_broadcast(self) -> bool:
        """True for ff:ff:ff:ff:ff:ff."""
        return self._value == self.MAX

    @property
    def is_multicast(self) -> bool:
        """True when the group bit (LSB of the first octet) is set."""
        return bool((self._value >> 40) & 0x01)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MacAddress):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "MacAddress") -> bool:
        if isinstance(other, MacAddress):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("mac", self._value))

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ":".join(f"{octet:02x}" for octet in raw)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


#: The Ethernet broadcast address.
BROADCAST_MAC = MacAddress((1 << 48) - 1)


@total_ordering
class Ipv4Address:
    """A 32-bit IPv4 address.

    The hash is computed once in ``__init__`` (addresses key the TCP demux,
    ARP and flow-cache tables on every packet).  It equals
    ``hash(("ipv4", value))``, which depends on the process's string-hash
    seed, so pickling goes by value (:meth:`__reduce__`) and an unpickled
    address re-hashes in the loading process.
    """

    __slots__ = ("_value", "_hash")

    MAX = (1 << 32) - 1

    def __init__(self, value: Union[int, str, "Ipv4Address"]):
        if isinstance(value, Ipv4Address):
            self._value = value._value
            self._hash = value._hash
            return
        if isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"malformed IPv4 address: {value!r}")
            try:
                octets = [int(part) for part in parts]
            except ValueError as exc:
                raise ValueError(f"malformed IPv4 address: {value!r}") from exc
            if any(octet < 0 or octet > 255 for octet in octets):
                raise ValueError(f"malformed IPv4 address: {value!r}")
            value = int.from_bytes(bytes(octets), "big")
        else:
            value = int(value)
            if value < 0 or value > self.MAX:
                raise ValueError(f"IPv4 address out of range: {value}")
        self._value = value
        self._hash = hash(("ipv4", value))

    def __reduce__(self):
        return (type(self), (self._value,))

    def __int__(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        """Big-endian 4-byte wire representation."""
        return self._value.to_bytes(4, "big")

    def in_subnet(self, network: "Ipv4Address", prefix_len: int) -> bool:
        """True if this address falls inside ``network``/``prefix_len``."""
        if prefix_len < 0 or prefix_len > 32:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        if prefix_len == 0:
            return True
        mask = (self.MAX << (32 - prefix_len)) & self.MAX
        return (self._value & mask) == (int(network) & mask)

    def __add__(self, offset: int) -> "Ipv4Address":
        return Ipv4Address(self._value + int(offset))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ipv4Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "Ipv4Address") -> bool:
        if isinstance(other, Ipv4Address):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ".".join(str(octet) for octet in raw)

    def __repr__(self) -> str:
        return f"Ipv4Address('{self}')"
