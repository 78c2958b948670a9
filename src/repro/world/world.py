"""The simulated Internet: registries, routing, and vantage points.

A :class:`World` owns the clock, DNS zone, address registries, ISPs,
hosts, and websites. A :class:`Vantage` binds a client address inside an
ISP (or the unfiltered lab network) to the world and implements the
:class:`repro.net.Fetcher` protocol: every request from an ISP vantage
traverses that ISP's on-path middlebox stack, which is where URL filters
act.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.net.dns import DnsZone, Resolver
from repro.net.errors import NxDomain
from repro.net.fetch import FetchOutcome, FetchResult, Hop
from repro.net.http import HttpRequest
from repro.net.ip import (
    AddressPool,
    Ipv4Address,
    Ipv4Prefix,
    PrefixTable,
    is_ascii_number,
)
from repro.net.url import Url
from repro.world.clock import SimClock, SimTime
from repro.world.content import ContentClass
from repro.world.faults import NO_FAULTS, FaultPlan, InjectedFault
from repro.world.entities import (
    AutonomousSystem,
    Country,
    Host,
    InterceptKind,
    ISP,
    OrgKind,
    Organization,
    WebSite,
)

MAX_REDIRECTS = 8

#: Deterministic per-hop latency (ms) of the simulated path. Every
#: request/redirect exchange costs one base unit; on-path devices add
#: their :attr:`~repro.world.entities.InterceptAction.delay_ms` on top.
#: Purely model time — unrelated to the wall-clock ``link_latency`` the
#: measurement client sleeps, and never touched by chaos fault plans
#: (injected faults raise, so a fault can never masquerade as
#: throttling).
HOP_BASE_MS = 40.0


def _is_ip_literal(host: str) -> bool:
    parts = host.split(".")
    return len(parts) == 4 and all(is_ascii_number(p) for p in parts)


class World:
    """Container and router for the whole simulated Internet."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.faults = NO_FAULTS
        self.clock = SimClock()
        self.zone = DnsZone()
        self.countries: Dict[str, Country] = {}
        self.autonomous_systems: Dict[int, AutonomousSystem] = {}
        self.isps: Dict[str, ISP] = {}
        self.hosts: Dict[int, Host] = {}
        self.websites: Dict[str, WebSite] = {}
        self._pools: Dict[int, AddressPool] = {}
        self._prefix_owners = PrefixTable()
        self.lab_country: Optional[Country] = None

    def install_faults(self, plan: Optional[FaultPlan]) -> None:
        """Install (or clear, with None) a chaos fault plan.

        Injected faults surface as :class:`repro.world.faults.InjectedFault`
        exceptions out of :meth:`fetch`, never as fetch outcomes, so the
        comparator can never mistake infrastructure noise for blocking.
        """
        self.faults = plan if plan is not None else NO_FAULTS

    # ----------------------------------------------------------- registry
    def add_country(self, code: str, name: str, region: str = "") -> Country:
        country = Country(code, name, region)
        self.countries[code] = country
        return country

    def country(self, code: str) -> Country:
        return self.countries[code]

    def add_autonomous_system(
        self,
        asn: int,
        name: str,
        org_name: str,
        kind: OrgKind,
        country: Country,
        prefixes: List[Ipv4Prefix],
    ) -> AutonomousSystem:
        if asn in self.autonomous_systems:
            raise ValueError(f"AS {asn} already registered")
        org = Organization(org_name, kind, country)
        autonomous_system = AutonomousSystem(asn, name, org, list(prefixes))
        self.autonomous_systems[asn] = autonomous_system
        for prefix in prefixes:
            self._prefix_owners.add(prefix, autonomous_system)
            if prefix.num_addresses >= 4:
                self._pools.setdefault(asn, AddressPool(prefix))
        return autonomous_system

    def add_isp(
        self,
        name: str,
        autonomous_system: AutonomousSystem,
        client_prefix: Optional[Ipv4Prefix] = None,
    ) -> ISP:
        if name in self.isps:
            raise ValueError(f"ISP {name!r} already registered")
        if client_prefix is None:
            if not autonomous_system.prefixes:
                raise ValueError(f"AS {autonomous_system.asn} has no prefixes")
            client_prefix = autonomous_system.prefixes[0]
        isp = ISP(name, autonomous_system, client_prefix)
        self.isps[name] = isp
        return isp

    def allocate_ip(self, asn: int) -> Ipv4Address:
        """Allocate a fresh host address from an AS's pool."""
        pool = self._pools.get(asn)
        if pool is None:
            raise KeyError(f"AS {asn} has no address pool")
        return pool.allocate()

    def add_host(self, host: Host) -> Host:
        self.hosts[host.ip.value] = host
        if host.hostname:
            self.zone.register(host.hostname, host.ip)
        return host

    def remove_host(self, ip: Ipv4Address) -> None:
        host = self.hosts.pop(ip.value, None)
        if host is not None and host.hostname:
            self.zone.unregister(host.hostname)

    def host_at(self, ip: Ipv4Address) -> Optional[Host]:
        return self.hosts.get(ip.value)

    def register_website(
        self,
        domain: str,
        content_class: ContentClass,
        hosting_asn: int,
        title: str = "",
        language: str = "en",
    ) -> WebSite:
        """Register a new website hosted in ``hosting_asn`` (DNS + host)."""
        if domain in self.websites:
            raise ValueError(f"domain {domain!r} already registered")
        ip = self.allocate_ip(hosting_asn)
        site = WebSite(domain, content_class, ip, title=title, language=language)
        self.websites[domain] = site
        self.add_host(site.as_host())
        return site

    def unregister_website(self, domain: str) -> None:
        site = self.websites.pop(domain, None)
        if site is not None:
            self.remove_host(site.ip)

    # --------------------------------------------------------- durability
    def capture_state(self, baseline_domains: frozenset) -> dict:
        """Plain-data world delta for study checkpoints.

        The world itself is deliberately unpicklable (noise hosts and
        vendor infrastructure are closures), so checkpoints capture the
        *difference* from a freshly built scenario: the clock position,
        campaign-registered websites (the §4 test domains persist for
        the life of the study), removed baseline domains, and the
        per-AS address-pool cursors that allocated the campaign IPs.
        """
        return {
            "clock": self.clock.now.minutes,
            "pools": {asn: pool._next for asn, pool in self._pools.items()},
            "added_sites": [
                self.websites[domain]
                for domain in self.websites
                if domain not in baseline_domains
            ],
            "removed_domains": sorted(
                domain
                for domain in baseline_domains
                if domain not in self.websites
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Re-apply a captured delta onto a freshly built world.

        Order matters: pool cursors first (adopted sites carry their
        already-allocated IPs and must not re-allocate), then site
        adoption/removal (which fixes DNS), then the clock — restored
        without tick callbacks, because every queue the ticks would
        mature is restored to its exact captured state separately.
        """
        for asn, cursor in state["pools"].items():
            pool = self._pools.get(asn)
            if pool is not None:
                pool._next = cursor
        for domain in state["removed_domains"]:
            self.unregister_website(domain)
        for site in state["added_sites"]:
            self.adopt_website(site)
        self.clock.restore(SimTime(state["clock"]))

    def adopt_website(self, site: WebSite) -> WebSite:
        """Install an already-allocated website (checkpoint restore)."""
        if site.domain in self.websites:
            raise ValueError(f"domain {site.domain!r} already registered")
        self.websites[site.domain] = site
        self.add_host(site.as_host())
        return site

    def owner_of(self, address: Ipv4Address) -> Optional[AutonomousSystem]:
        """Ground-truth AS owning an address (registries may have errors)."""
        owner = self._prefix_owners.lookup(address)
        return owner if isinstance(owner, AutonomousSystem) else None

    def country_of(self, address: Ipv4Address) -> Optional[Country]:
        owner = self.owner_of(address)
        return owner.country if owner else None

    def all_websites(self) -> Iterator[WebSite]:
        return iter(self.websites.values())

    # ------------------------------------------------------------ routing
    @property
    def now(self) -> SimTime:
        return self.clock.now

    def advance_days(self, days: float) -> SimTime:
        return self.clock.advance_days(days)

    def vantage(self, isp_name: str, client_index: int = 10) -> "Vantage":
        """A measurement vantage inside a named ISP (§4.1 "field")."""
        isp = self.isps[isp_name]
        return Vantage(self, isp, isp.client_ip(client_index))

    def lab_vantage(self) -> "Vantage":
        """The unfiltered lab vantage (University of Toronto in the paper)."""
        return Vantage(self, None, Ipv4Address.parse("198.51.100.7"))

    def _same_network(self, isp: Optional[ISP], host: Host) -> bool:
        """True when the vantage sits in the AS that owns the host."""
        if isp is None:
            return False
        owner = self.owner_of(host.ip)
        return owner is not None and owner.asn == isp.asn

    def _vantage_label(self, isp: Optional[ISP]) -> str:
        return isp.name if isp is not None else "lab"

    def _resolve(self, isp: Optional[ISP], hostname: str) -> Ipv4Address:
        if _is_ip_literal(hostname):
            return Ipv4Address.parse(hostname)
        key = hostname.lower().rstrip(".")
        faults = self.faults
        if isp is not None and (isp.dns_poisoned or isp.dns_refused):
            # The fault hook fires before the poisoned/refused tables so
            # a flap can hit censored names too.
            resolver = Resolver(self.zone)
            if faults.active:
                resolver.fault_hook = lambda name: faults.dns_fault(
                    self._vantage_label(isp), name
                )
            resolver.poisoned.update(isp.dns_poisoned)
            resolver.refused.update(isp.dns_refused)
            return resolver.resolve(hostname)
        if faults.active:
            fault = faults.dns_fault(self._vantage_label(isp), key)
            if fault is not None:
                raise fault
        return self.zone.resolve(hostname)

    def fetch(
        self,
        isp: Optional[ISP],
        url: Url,
        client_ip: Optional[Ipv4Address] = None,
        *,
        follow_redirects: bool = True,
    ) -> FetchResult:
        """Fetch ``url`` from inside ``isp`` (or the open Internet if None).

        Each hop (including redirect targets) traverses the ISP's on-path
        devices, so a filter sees and can block redirect destinations too.

        Injected faults (an active :class:`~repro.world.faults.FaultPlan`)
        raise :class:`~repro.world.faults.InjectedFault` exceptions out of
        this method rather than returning failure outcomes: infrastructure
        noise is the retry layer's problem and must never reach the
        field/lab comparator disguised as a censorship signal.
        """
        faults = self.faults
        if faults.active:
            faults.raise_fetch_faults(
                self._vantage_label(isp), url.host, self.clock.now
            )
        hops: List[Hop] = []
        current = url
        elapsed = 0.0
        rst_injected = False

        def done(
            outcome: FetchOutcome, error: Optional[str] = None
        ) -> FetchResult:
            return FetchResult(
                url,
                outcome,
                hops,
                error,
                elapsed_ms=elapsed,
                rst_injected=rst_injected,
            )

        for _hop_index in range(MAX_REDIRECTS + 1):
            elapsed += HOP_BASE_MS
            try:
                destination = self._resolve(isp, current.host)
            except InjectedFault:
                raise
            except NxDomain as exc:
                return done(FetchOutcome.DNS_FAILURE, str(exc))
            request = HttpRequest.get(current, client_ip)
            response = None
            if isp is not None:
                for device in isp.devices:
                    action = device.intercept(request, self.clock.now)
                    elapsed += action.delay_ms
                    if action.kind is InterceptKind.PASS:
                        continue
                    if action.kind is InterceptKind.RESET:
                        return done(FetchOutcome.TCP_RESET, "connection reset")
                    if action.kind is InterceptKind.DROP:
                        return done(FetchOutcome.TIMEOUT, "connection timed out")
                    if action.kind is InterceptKind.TLS_RESET:
                        return done(
                            FetchOutcome.TLS_RESET, "tls handshake reset"
                        )
                    if action.kind is InterceptKind.RST_INJECT:
                        # The injected RST lost the race with the origin's
                        # content: record the wire evidence, keep going.
                        rst_injected = True
                        continue
                    response = action.response
                    break
            if response is None:
                host = self.hosts.get(destination.value)
                if host is None:
                    return done(
                        FetchOutcome.UNREACHABLE, f"no route to {destination}"
                    )
                if host.internal_only and not self._same_network(isp, host):
                    return done(
                        FetchOutcome.UNREACHABLE,
                        f"{destination} not externally reachable",
                    )
                response = host.serve(request)
                if isp is not None:
                    # Proxies on the return path may annotate responses
                    # (Via headers etc.) — the signal Netalyzr-style
                    # fingerprinting reads.
                    for device in isp.devices:
                        annotate = getattr(device, "annotate_response", None)
                        if annotate is not None:
                            response = annotate(request, response)
            hops.append(Hop(request, response))
            if not (follow_redirects and response.is_redirect):
                return done(FetchOutcome.OK)
            location = response.location or ""
            try:
                if "://" in location:
                    current = Url.parse(location)
                elif location.startswith("/"):
                    current = current.with_path(location)
                else:
                    return done(FetchOutcome.OK)
            except Exception:
                return done(FetchOutcome.OK)
        return done(FetchOutcome.TOO_MANY_REDIRECTS, "redirect loop")


@dataclass
class Vantage:
    """A client location bound to the world; implements the Fetcher protocol."""

    world: World
    isp: Optional[ISP]
    client_ip: Ipv4Address

    def fetch(self, url: Url, *, follow_redirects: bool = True) -> FetchResult:
        return self.world.fetch(
            self.isp, url, self.client_ip, follow_redirects=follow_redirects
        )

    @property
    def location(self) -> str:
        if self.isp is None:
            return "lab"
        return str(self.isp)

    @property
    def is_lab(self) -> bool:
        return self.isp is None
