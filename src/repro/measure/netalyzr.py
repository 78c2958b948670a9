"""Netalyzr-style transparent-proxy fingerprinting.

§1 and §7: "our methodology can provide a useful ground truth for more
general identification of transparent proxies (e.g., Netalyzr)". This
module implements that client-side fingerprinting: a vantage inside an
ISP fetches a researcher-controlled *reference* URL whose canonical
response is known exactly, and diffs what arrives against what the
server sent. Header residue (Via, Via-Proxy, X-Cache) betrays an
on-path proxy; the residue's content attributes the product.

The §4 confirmation methodology serves as ground truth for this
fingerprinting — the benches cross-validate the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.executor import Executor
from repro.net.http import Headers, HttpResponse, html_page
from repro.net.url import Url
from repro.products.registry import default_registry
from repro.world.entities import Host
from repro.world.world import Vantage, World

REFERENCE_HOST = "aperture.netalyzr-reference.example"

#: Headers a reference fetch should never gain in transit; each maps a
#: residue substring to the product it attributes (each registered
#: spec's ``residue_tokens``).
RESIDUE_ATTRIBUTION: Sequence[Tuple[str, str]] = (
    default_registry().residue_attribution()
)

_TRANSIT_HEADERS = ("via", "via-proxy", "x-cache", "proxy-agent")


def canonical_reference_response() -> HttpResponse:
    """The exact response the reference server serves — byte-stable."""
    headers = Headers()
    headers.set("Server", "aperture/1.0")
    headers.set("Content-Type", "text/html; charset=utf-8")
    headers.set("X-Aperture-Token", "d41d8cd98f00b204")
    return HttpResponse(
        200,
        headers,
        html_page("Aperture Reference", "<p>reference-payload-3c59dc</p>"),
    )


def install_reference_server(world: World, hosting_asn: int) -> Host:
    """Register the reference host (idempotent)."""
    if REFERENCE_HOST in world.zone:
        ip = world.zone.resolve(REFERENCE_HOST)
        host = world.host_at(ip)
        assert host is not None
        return host
    ip = world.allocate_ip(hosting_asn)
    host = Host(ip=ip, hostname=REFERENCE_HOST, tags=["netalyzr-reference"])
    host.add_service(80, lambda _request: canonical_reference_response())
    host.add_service(443, lambda _request: canonical_reference_response())
    world.add_host(host)
    return host


@dataclass
class ProxyFinding:
    """One piece of in-transit modification evidence."""

    kind: str  # added_header | modified_header | missing_header | status
    detail: str


@dataclass
class ProxyDetectionReport:
    """What the in-network fingerprinting concluded."""

    vantage_label: str
    proxy_detected: bool
    findings: List[ProxyFinding] = field(default_factory=list)
    attributed_products: List[str] = field(default_factory=list)

    @property
    def attributable(self) -> bool:
        return bool(self.attributed_products)


def detect_proxy(vantage: Vantage, *, scheme: str = "http") -> ProxyDetectionReport:
    """Fetch the reference URL from ``vantage`` and diff the response.

    Raises LookupError when the reference server has not been installed
    in the vantage's world.
    """
    world = vantage.world
    if REFERENCE_HOST not in world.zone:
        raise LookupError(
            "reference server not installed; call install_reference_server()"
        )
    url = Url.for_host(REFERENCE_HOST, scheme=scheme)
    result = vantage.fetch(url)
    report = ProxyDetectionReport(vantage_label=vantage.location, proxy_detected=False)
    canonical = canonical_reference_response()

    if not result.ok or result.response is None:
        report.proxy_detected = True
        report.findings.append(
            ProxyFinding("status", f"fetch failed: {result.outcome.value}")
        )
        return report

    observed = result.response
    if observed.status != canonical.status:
        report.proxy_detected = True
        report.findings.append(
            ProxyFinding("status", f"{canonical.status} -> {observed.status}")
        )
    if observed.body != canonical.body:
        report.proxy_detected = True
        report.findings.append(ProxyFinding("modified_header", "body rewritten"))

    canonical_names = {name.lower() for name, _v in canonical.headers.items()}
    for name, value in observed.headers.items():
        lowered = name.lower()
        if lowered in canonical_names:
            if canonical.headers.get(name) != value:
                report.proxy_detected = True
                report.findings.append(
                    ProxyFinding("modified_header", f"{name}: {value}")
                )
            continue
        report.proxy_detected = True
        report.findings.append(ProxyFinding("added_header", f"{name}: {value}"))
        if lowered in _TRANSIT_HEADERS:
            for needle, product in RESIDUE_ATTRIBUTION:
                if needle in value.lower() and product not in report.attributed_products:
                    report.attributed_products.append(product)
    for name, _value in canonical.headers.items():
        if observed.headers.get(name) is None:
            report.proxy_detected = True
            report.findings.append(ProxyFinding("missing_header", name))
    return report


def survey_isps(
    world: World,
    isp_names: Sequence[str],
    *,
    executor: Optional[Executor] = None,
) -> Dict[str, ProxyDetectionReport]:
    """Run proxy detection from a vantage in each named ISP.

    Each ISP's reference fetch is an independent campaign, so they fan
    out across workers; the report dict keeps the caller's ISP order
    regardless of completion order.
    """
    reports = (executor or Executor()).map(
        lambda name: detect_proxy(world.vantage(name)),
        isp_names,
        label="netalyzr",
    )
    return dict(zip(isp_names, reports))
