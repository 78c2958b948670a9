"""Simulated DNS: a flat authoritative resolver for the world model.

The study never depends on DNS trickery (blocking in the measured ISPs is
performed by on-path HTTP middleboxes), but the substrate still resolves
hostnames to addresses so that fetches, banner grabs, and hosting all go
through one consistent name system. DNS-level censorship (an ISP that
refuses or lies for some names) is applied by the world's resolution, in
front of this zone, so the comparison layer can classify it separately
from block pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.net.errors import NxDomain
from repro.net.ip import Ipv4Address


@dataclass
class DnsRecord:
    """An A record binding one hostname to one address."""

    name: str
    address: Ipv4Address


class DnsZone:
    """Authoritative name-to-address store for the whole simulated world."""

    def __init__(self) -> None:
        self._records: Dict[str, DnsRecord] = {}
        # address -> first name registered for it; rebuilt on the first
        # reverse lookup after any change.
        self._reverse: Optional[Dict[Ipv4Address, str]] = None

    def register(self, name: str, address: Ipv4Address) -> DnsRecord:
        """Register (or re-point) an A record."""
        record = DnsRecord(name.lower().rstrip("."), address)
        self._records[record.name] = record
        self._reverse = None
        return record

    def unregister(self, name: str) -> None:
        self._records.pop(name.lower().rstrip("."), None)
        self._reverse = None

    def resolve(self, name: str) -> Ipv4Address:
        record = self._records.get(name.lower().rstrip("."))
        if record is None:
            raise NxDomain(name)
        return record.address

    def reverse(self, address: Ipv4Address) -> Optional[str]:
        """Best-effort PTR lookup (first name registered for the address).

        A re-pointed name keeps its registration position, so the map
        built in registration order agrees with a scan of the zone.
        """
        reverse = self._reverse
        if reverse is None:
            reverse = {}
            for record in self._records.values():
                reverse.setdefault(record.address, record.name)
            self._reverse = reverse
        return reverse.get(address)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower().rstrip(".") in self._records

    def __len__(self) -> int:
        return len(self._records)

    def names(self) -> Iterator[str]:
        return iter(self._records)
