"""IPv4 addresses, prefixes, and allocation pools for the simulated Internet.

The world model hands out address space to autonomous systems the same way
a registry would: a :class:`PrefixPool` carves a parent prefix into
fixed-size child prefixes, and each :class:`Ipv4Prefix` can then enumerate
or allocate individual host addresses.

Implemented from scratch (rather than on :mod:`ipaddress`) so the types
stay small, hashable, and deterministic, and so prefixes can carry
allocation state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.net.errors import AddressError, AllocationExhausted

_MAX_IPV4 = 0xFFFFFFFF


def is_ascii_number(text: str) -> bool:
    """True for a non-empty run of ASCII digits.

    ``str.isdigit`` alone also accepts ``²``, which ``int`` rejects, and
    ``٣``, which ``int`` reads as 3.
    """
    return text.isascii() and text.isdigit()


def _check_octet(text: str) -> int:
    if not is_ascii_number(text) or (len(text) > 1 and text[0] == "0"):
        raise AddressError(f"bad IPv4 octet {text!r}")
    value = int(text)
    if value > 255:
        raise AddressError(f"IPv4 octet out of range: {text!r}")
    return value


@dataclass(frozen=True, order=True)
class Ipv4Address:
    """A single IPv4 address stored as an unsigned 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX_IPV4:
            raise AddressError(f"IPv4 value out of range: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "Ipv4Address":
        """Parse dotted-quad notation, e.g. ``"192.0.2.1"``."""
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise AddressError(f"bad IPv4 address {text!r}")
        value = 0
        for part in parts:
            value = (value << 8) | _check_octet(part)
        return cls(value)

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __add__(self, offset: int) -> "Ipv4Address":
        return Ipv4Address(self.value + offset)


@dataclass(frozen=True, order=True)
class Ipv4Prefix:
    """An IPv4 CIDR prefix such as ``192.0.2.0/24``."""

    network: Ipv4Address
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"bad prefix length /{self.length}")
        if self.network.value & self.host_mask():
            raise AddressError(
                f"{self.network}/{self.length} has host bits set"
            )

    @classmethod
    def parse(cls, text: str) -> "Ipv4Prefix":
        """Parse CIDR notation, e.g. ``"192.0.2.0/24"``."""
        if "/" not in text:
            raise AddressError(f"missing prefix length in {text!r}")
        addr_text, _, len_text = text.partition("/")
        if not is_ascii_number(len_text):
            raise AddressError(f"bad prefix length in {text!r}")
        return cls(Ipv4Address.parse(addr_text), int(len_text))

    def net_mask(self) -> int:
        return (_MAX_IPV4 << (32 - self.length)) & _MAX_IPV4

    def host_mask(self) -> int:
        return _MAX_IPV4 >> self.length if self.length else _MAX_IPV4

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Ipv4Address):
            return (item.value & self.net_mask()) == self.network.value
        if isinstance(item, Ipv4Prefix):
            return item.length >= self.length and item.network in self
        return False

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"

    def address_at(self, offset: int) -> Ipv4Address:
        """Return the host address ``offset`` addresses into the prefix."""
        if not 0 <= offset < self.num_addresses:
            raise AddressError(
                f"offset {offset} outside {self} ({self.num_addresses} addrs)"
            )
        return Ipv4Address(self.network.value + offset)

    def hosts(self) -> Iterator[Ipv4Address]:
        """Iterate usable host addresses (skips network/broadcast on /30-)."""
        if self.length >= 31:
            start, stop = 0, self.num_addresses
        else:
            start, stop = 1, self.num_addresses - 1
        for offset in range(start, stop):
            yield Ipv4Address(self.network.value + offset)


@dataclass
class AddressPool:
    """Sequential allocator of host addresses within one prefix."""

    prefix: Ipv4Prefix
    _next: int = field(default=1, repr=False)

    def allocate(self) -> Ipv4Address:
        """Hand out the next unused host address."""
        limit = self.prefix.num_addresses - (0 if self.prefix.length >= 31 else 1)
        if self._next >= limit:
            raise AllocationExhausted(f"pool {self.prefix} exhausted")
        address = self.prefix.address_at(self._next)
        self._next += 1
        return address

    @property
    def remaining(self) -> int:
        limit = self.prefix.num_addresses - (0 if self.prefix.length >= 31 else 1)
        return max(0, limit - self._next)


@dataclass
class PrefixPool:
    """Carves a parent prefix into equally sized child prefixes on demand."""

    parent: Ipv4Prefix
    child_length: int
    _allocated: List[Ipv4Prefix] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.child_length < self.parent.length:
            raise AddressError(
                f"child /{self.child_length} larger than parent {self.parent}"
            )

    def allocate(self) -> Ipv4Prefix:
        """Hand out the next unused child prefix."""
        index = len(self._allocated)
        step = 1 << (32 - self.child_length)
        base = self.parent.network.value + index * step
        if base >= self.parent.network.value + self.parent.num_addresses:
            raise AllocationExhausted(f"prefix pool {self.parent} exhausted")
        prefix = Ipv4Prefix(Ipv4Address(base), self.child_length)
        self._allocated.append(prefix)
        return prefix

    @property
    def allocated(self) -> List[Ipv4Prefix]:
        return list(self._allocated)


class PrefixTable:
    """Longest-prefix-match table mapping prefixes to arbitrary values.

    Used by the geolocation and whois substrates to answer "which entry
    covers this IP" the way a routing table or GeoIP database would.
    """

    def __init__(self) -> None:
        self._entries: List[tuple] = []
        self._sorted = True

    def add(self, prefix: Ipv4Prefix, value: object) -> None:
        self._entries.append((prefix, value))
        self._sorted = False

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            # Longest prefixes first so the first hit is the best match.
            self._entries.sort(key=lambda e: -e[0].length)
            self._sorted = True

    def lookup(self, address: Ipv4Address) -> Optional[object]:
        """Return the value of the longest prefix covering ``address``."""
        self._ensure_sorted()
        for prefix, value in self._entries:
            if address in prefix:
                return value
        return None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple]:
        self._ensure_sorted()
        return iter(self._entries)
