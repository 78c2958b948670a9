"""Versioned URL categorization databases.

Every product ships a master database of pre-categorized URLs plus a
subscription/update channel that pushes newly categorized URLs to
deployed boxes (§2.1). We model the master as an append-only, versioned
store keyed at hostname granularity (§4.6 found blocking applied to the
whole host), and deployments read it through a
:class:`DatabaseSubscription` whose cutoff models withdrawn update
support — as happened to Websense in Yemen in 2009 and Blue Coat in
Syria (§2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from repro.net.url import Url
from repro.products.categories import VendorCategory
from repro.world.clock import SimTime


@dataclass(frozen=True)
class DbEntry:
    """One categorization fact: a host belongs to a category from a time."""

    host: str
    category: VendorCategory
    effective_at: SimTime
    source: str = "seed"  # seed | submission | auto_queue | analyst


def _host_key(target: Union[str, Url]) -> str:
    if isinstance(target, Url):
        return target.host
    return target.lower().rstrip(".")


class UrlDatabase:
    """Append-only, time-versioned host-to-category store."""

    def __init__(self, vendor: str) -> None:
        self.vendor = vendor
        self._entries: Dict[str, List[DbEntry]] = {}
        self._delta: List[DbEntry] = []  # non-seed entries, add order

    def add(
        self,
        target: Union[str, Url],
        category: VendorCategory,
        effective_at: SimTime,
        source: str = "seed",
    ) -> DbEntry:
        """Record that ``target``'s host is ``category`` from ``effective_at``."""
        entry = DbEntry(_host_key(target), category, effective_at, source)
        bucket = self._entries.setdefault(entry.host, [])
        bucket.append(entry)
        bucket.sort(key=lambda e: e.effective_at)
        if source != "seed":
            self._delta.append(entry)
        return entry

    def lookup(
        self, target: Union[str, Url], as_of: SimTime
    ) -> Optional[VendorCategory]:
        """The category in effect for the host at ``as_of`` (latest wins)."""
        entry = self.lookup_entry(target, as_of)
        return entry.category if entry else None

    def lookup_entry(
        self, target: Union[str, Url], as_of: SimTime
    ) -> Optional[DbEntry]:
        bucket = self._entries.get(_host_key(target))
        if not bucket:
            return None
        chosen: Optional[DbEntry] = None
        for entry in bucket:
            if entry.effective_at <= as_of:
                chosen = entry
            else:
                break
        return chosen

    def knows(self, target: Union[str, Url], as_of: SimTime) -> bool:
        return self.lookup(target, as_of) is not None

    def entries_for(self, target: Union[str, Url]) -> List[DbEntry]:
        return list(self._entries.get(_host_key(target), []))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())

    def hosts(self) -> Iterator[str]:
        return iter(self._entries)

    def capture_delta(self) -> List[DbEntry]:
        """Every non-seed entry, in add order, for study checkpoints.

        Seed entries are a pure function of the scenario seed and are
        rebuilt by ``build_scenario`` on resume; only campaign-era facts
        (submissions, Netsweeper's auto queue, analyst actions) need to
        travel. Replaying them in add order re-sorts equal
        ``effective_at`` ties identically under the stable per-add sort
        and re-creates new hosts in the same order. The list only grows:
        a captured entry is never changed or reordered later.
        """
        return list(self._delta)

    def restore_delta(self, delta: List[DbEntry]) -> None:
        """Re-apply a captured delta onto a freshly seeded database.

        Replays the entries' adds in order. A bucket's order depends
        only on the add order of its host's entries with equal
        ``effective_at``, which older bucket-order captures keep too, so
        they rebuild the same buckets and host order.
        """
        for entry in delta:
            self.add(entry.host, entry.category, entry.effective_at, entry.source)

    def size_at(self, as_of: SimTime) -> int:
        """Number of hosts categorized as of a time (vendors advertise this)."""
        return sum(
            1
            for bucket in self._entries.values()
            if any(entry.effective_at <= as_of for entry in bucket)
        )


@dataclass
class DatabaseSubscription:
    """A deployment's read channel onto the vendor master database.

    When ``active`` the deployment always sees the latest master state.
    When support is withdrawn (:meth:`withdraw`), the deployment is
    frozen at the database state as of the cutoff — newly categorized
    URLs never reach it.
    """

    master: UrlDatabase
    active: bool = True
    cutoff: Optional[SimTime] = None

    def withdraw(self, when: SimTime) -> None:
        """Vendor stops pushing updates to this deployment (§2.2, Yemen)."""
        self.active = False
        self.cutoff = when

    def effective_time(self, now: SimTime) -> SimTime:
        if self.active or self.cutoff is None:
            return now
        return min(now, self.cutoff)

    def lookup(
        self, target: Union[str, Url], now: SimTime
    ) -> Optional[VendorCategory]:
        return self.master.lookup(target, self.effective_time(now))

    def knows(self, target: Union[str, Url], now: SimTime) -> bool:
        return self.lookup(target, now) is not None
