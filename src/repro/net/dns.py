"""Simulated DNS: a flat authoritative resolver for the world model.

The study never depends on DNS trickery (blocking in the measured ISPs is
performed by on-path HTTP middleboxes), but the substrate still resolves
hostnames to addresses so that fetches, banner grabs, and hosting all go
through one consistent name system. DNS-level censorship (a resolver that
lies for some names) is supported so the comparison layer can classify it
separately from block pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Set

from repro.net.errors import NxDomain
from repro.net.ip import Ipv4Address

#: A fault-injection hook: given the normalized name being resolved,
#: return an exception to raise (a chaos plan's injected DNS timeout or
#: NXDOMAIN flap) or None to let resolution proceed. Kept as a callable
#: so the net layer stays ignorant of the world's fault machinery.
FaultHook = Callable[[str], Optional[Exception]]


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


@dataclass
class Resolver:
    """A client-facing resolver, optionally poisoned for censored names.

    ``poisoned`` maps hostnames to the address the resolver lies with
    (commonly a block-page server); names in ``refused`` yield NXDOMAIN.
    """

    zone: DnsZone
    poisoned: Dict[str, Ipv4Address] = field(default_factory=dict)
    refused: Set[str] = field(default_factory=set)
    #: Optional chaos hook consulted before any lookup logic; may return
    #: an exception (injected timeout/flap) for this resolver to raise.
    fault_hook: Optional[FaultHook] = None

    def resolve(self, name: str) -> Ipv4Address:
        key = name.lower().rstrip(".")
        if self.fault_hook is not None:
            fault = self.fault_hook(key)
            if fault is not None:
                raise fault
        if key in self.refused:
            raise NxDomain(name)
        if key in self.poisoned:
            return self.poisoned[key]
        return self.zone.resolve(name)

    def poison(self, name: str, address: Ipv4Address) -> None:
        self.poisoned[name.lower().rstrip(".")] = address

    def refuse(self, name: str) -> None:
        self.refused.add(name.lower().rstrip("."))
