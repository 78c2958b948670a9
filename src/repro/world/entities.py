"""World entities: countries, organizations, ASes, hosts, sites, ISPs.

The entities deliberately mirror the nouns of the paper: ISPs identified
by AS number (Table 3 lists e.g. Etisalat AS 5384), hosts that may be
visible on the global Internet (the §3 identification assumption), and
on-path devices that can intercept a client's HTTP traffic (the URL
filters themselves).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol

from repro.net.http import HttpRequest, HttpResponse, not_found_response, ok_response
from repro.net.ip import Ipv4Address, Ipv4Prefix
from repro.world.clock import SimTime
from repro.world.content import ContentClass


@dataclass(frozen=True)
class Country:
    """A country identified by its ISO 3166-1 alpha-2 code."""

    code: str
    name: str
    region: str = ""

    def __post_init__(self) -> None:
        if len(self.code) != 2 or not self.code.islower():
            raise ValueError(f"country code must be 2 lowercase letters: {self.code!r}")


class OrgKind(enum.Enum):
    """The kind of organization operating a network (§3.2 diversity)."""

    NATIONAL_ISP = "national_isp"
    ISP = "isp"
    TELECOM = "telecom"
    UTILITY = "utility"
    EDUCATION = "education"
    MILITARY = "military"
    GOVERNMENT = "government"
    HOSTING = "hosting"
    ENTERPRISE = "enterprise"
    UNIVERSITY = "university"


@dataclass(frozen=True)
class Organization:
    name: str
    kind: OrgKind
    country: Country


@dataclass
class AutonomousSystem:
    """An AS: a number, a name (as whois would report it), and prefixes."""

    asn: int
    name: str
    org: Organization
    prefixes: List[Ipv4Prefix] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 1 <= self.asn <= 4_294_967_295:
            raise ValueError(f"bad AS number {self.asn}")

    @property
    def country(self) -> Country:
        return self.org.country

    def owns(self, address: Ipv4Address) -> bool:
        return any(address in prefix for prefix in self.prefixes)

    def __hash__(self) -> int:
        return hash(self.asn)


class InterceptKind(enum.Enum):
    """What an on-path device does with a flow it inspects."""

    PASS = "pass"  # let the request continue toward the origin
    RESPOND = "respond"  # synthesize a response (block page / redirect)
    RESET = "reset"  # inject a TCP RST
    DROP = "drop"  # silently drop packets (client sees a timeout)
    #: Tear down the TLS handshake on the server name (SNI filtering);
    #: the TCP connection itself completed, no HTTP exchange happens.
    TLS_RESET = "tls_reset"
    #: Fire an RST at the client but let the origin's packets race it;
    #: when the content wins, the page arrives with an on-wire RST as
    #: the only evidence of interference.
    RST_INJECT = "rst_inject"


@dataclass
class InterceptAction:
    """A device's decision plus any latency it imposed on the flow.

    ``delay_ms`` composes with PASS for throttling middleboxes: the
    request continues toward the origin, but the device holds the flow —
    soft censorship the verdict layer reads from fetch timings.
    """

    kind: InterceptKind
    response: Optional[HttpResponse] = None
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is InterceptKind.RESPOND and self.response is None:
            raise ValueError("RESPOND action requires a response")
        if self.delay_ms < 0:
            raise ValueError("delay_ms must be >= 0")

    @classmethod
    def passthrough(cls) -> "InterceptAction":
        return cls(InterceptKind.PASS)


class OnPathDevice(Protocol):
    """Anything deployed on an ISP's forwarding path (a filter middlebox)."""

    def intercept(self, request: HttpRequest, now: SimTime) -> InterceptAction:
        """Inspect one outbound client request and decide its fate."""
        ...  # pragma: no cover


# A service is a callable handling HTTP requests on one (host, port).
ServiceApp = Callable[[HttpRequest], HttpResponse]


@dataclass
class Host:
    """A reachable endpoint on the simulated Internet.

    A host exposes one or more HTTP services keyed by port. Filtering
    middleboxes that are misconfigured to be externally visible register
    a Host for their admin/proxy interfaces, which is exactly what Shodan
    indexes (§3.1).
    """

    ip: Ipv4Address
    hostname: str = ""
    services: Dict[int, ServiceApp] = field(default_factory=dict)
    tags: List[str] = field(default_factory=list)
    #: Internal hosts are reachable only from vantages inside the owning
    #: AS — a correctly configured middlebox that external scans cannot
    #: see (the complement of the §3.1 misconfiguration).
    internal_only: bool = False

    def add_service(self, port: int, app: ServiceApp) -> None:
        if not 1 <= port <= 65535:
            raise ValueError(f"bad port {port}")
        self.services[port] = app

    def open_ports(self) -> List[int]:
        return sorted(self.services)

    def serve(self, request: HttpRequest) -> HttpResponse:
        app = self.services.get(request.url.port)
        if app is None:
            return not_found_response()
        return app(request)


@dataclass
class WebSite:
    """An origin website: a hostname, content pages, and a content class.

    The content class is ground truth used by vendor categorization
    reviewers — a reviewer who "visits" the site sees what it hosts.
    """

    domain: str
    content_class: ContentClass
    ip: Ipv4Address
    title: str = ""
    pages: Dict[str, HttpResponse] = field(default_factory=dict)
    language: str = "en"
    operator_country: Optional[Country] = None

    def __post_init__(self) -> None:
        if not self.title:
            self.title = self.domain
        if "/" not in self.pages:
            self.pages["/"] = ok_response(
                self.title,
                f"<h1>{self.title}</h1><p>{self.content_class.value} content</p>",
            )

    @staticmethod
    def canonical_path(path: str) -> str:
        """Normalize a page path to its canonical stored form.

        Crawler-extracted self-links often carry a trailing ``?query``
        or doubled slashes; both variants must resolve to the page they
        reference instead of 404ing. Rejects paths without a leading
        slash (the caller passed a relative or malformed reference).
        """
        if not path.startswith("/"):
            raise ValueError(f"path must start with '/': {path!r}")
        path = path.split("?", 1)[0].split("#", 1)[0]
        while "//" in path:
            path = path.replace("//", "/")
        return path or "/"

    def add_page(self, path: str, response: HttpResponse) -> None:
        self.pages[self.canonical_path(path)] = response

    def app(self, request: HttpRequest) -> HttpResponse:
        try:
            path = self.canonical_path(request.url.path)
        except ValueError:
            return not_found_response()
        response = self.pages.get(path)
        if response is None:
            return not_found_response()
        return response

    def as_host(self) -> Host:
        host = Host(ip=self.ip, hostname=self.domain, tags=["website"])
        host.add_service(80, self.app)
        host.add_service(443, self.app)
        return host


@dataclass
class ISP:
    """An access network: the vantage point for in-country measurement.

    ``devices`` is the ordered on-path middlebox stack every client
    request traverses (§4.5's stacked SmartFilter-on-ProxySG deployment
    is two coordinated entries resolved inside the middlebox layer).
    """

    name: str
    autonomous_system: AutonomousSystem
    client_prefix: Ipv4Prefix
    devices: List[OnPathDevice] = field(default_factory=list)
    upstream_asns: List[int] = field(default_factory=list)
    #: DNS-level censorship: names the ISP resolver lies about (answering
    #: with the given address, typically a block-page server) or refuses
    #: (NXDOMAIN). The products studied block over HTTP, but the
    #: comparator must be able to tell DNS tampering apart (§4.1).
    #: Names are lower-case without a trailing dot, the form
    #: ``World._resolve`` looks them up in.
    dns_poisoned: Dict[str, Ipv4Address] = field(default_factory=dict)
    dns_refused: List[str] = field(default_factory=list)

    @property
    def asn(self) -> int:
        return self.autonomous_system.asn

    @property
    def country(self) -> Country:
        return self.autonomous_system.country

    def add_device(self, device: OnPathDevice) -> None:
        self.devices.append(device)

    def client_ip(self, index: int = 10) -> Ipv4Address:
        """A client address inside this ISP's access prefix."""
        return self.client_prefix.address_at(index)

    def __str__(self) -> str:
        return f"{self.name} (AS {self.asn}, {self.country.code.upper()})"
