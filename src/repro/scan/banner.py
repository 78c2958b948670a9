"""Banner grabbing: what an Internet-wide scanner records per service.

Shodan entries "consist of an IP address, along with meta-data and HTTP
headers observed when the IP address was accessed by the search engine"
(§3.1). A :class:`BannerRecord` captures exactly that: the status line,
headers, HTML title, and hostname — enough for keyword search, not a
full crawl.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exec.executor import Executor, THREAD_BACKEND
from repro.exec.resilience import ResilientRunner
from repro.net.fetch import FetchOutcome
from repro.net.ip import Ipv4Address
from repro.net.url import Url
from repro.products.registry import default_registry
from repro.world.clock import SimTime
from repro.world.faults import corrupt_text
from repro.world.world import World

#: Ports a Shodan-style scanner probes: the common web set plus every
#: default product's distinctive ports (block-page services, webadmin
#: consoles) from the registry.
DEFAULT_SCAN_PORTS: Sequence[int] = default_registry().scan_ports()


@dataclass
class BannerRecord:
    """One (ip, port) observation from an Internet-wide scan."""

    ip: Ipv4Address
    port: int
    status_line: str
    headers_text: str
    html_title: str
    hostname: str
    observed_at: SimTime
    country_code: str = ""  # scanner-side geolocation tag (may be wrong)

    @property
    def banner_text(self) -> str:
        """The searchable text of this record."""
        return "\n".join(
            part
            for part in (
                self.status_line,
                self.headers_text,
                self.html_title,
                self.hostname,
            )
            if part
        )

    @property
    def _banner_lower(self) -> str:
        cached = getattr(self, "_banner_lower_cache", None)
        if cached is None:
            cached = self.banner_text.lower()
            object.__setattr__(self, "_banner_lower_cache", cached)
        return cached

    def matches_keyword(self, keyword: str) -> bool:
        return keyword.lower() in self._banner_lower


def grab_banner(
    world: World, ip: Ipv4Address, port: int
) -> Optional[BannerRecord]:
    """Probe one (ip, port) from the open Internet; None if nothing answers.

    The probe does not follow redirects: a scanner records the raw
    response, so Location headers (Netsweeper's ``/webadmin/`` redirect,
    Websense's ``blockpage.cgi``) appear verbatim in the banner.
    """
    host = world.host_at(ip)
    if host is None or port not in host.services:
        return None
    scheme = "https" if port in (443, 8443) else "http"
    url = Url(scheme, str(ip), port, "/")
    result = world.fetch(None, url, follow_redirects=False)
    if result.outcome is not FetchOutcome.OK or result.response is None:
        return None
    response = result.response
    country = world.country_of(ip)
    status_line = response.status_line()
    headers_text = response.headers.as_text()
    html_title = response.html_title() or ""
    corruption = world.faults.banner_corruption(str(ip), port)
    if corruption is not None:
        # A half-read socket or line noise damages the recorded text but
        # still yields an entry — the scanner indexes what it saw, and
        # keyword queries simply miss the mangled signature.
        status_line = corrupt_text(corruption, status_line)
        headers_text = corrupt_text(corruption, headers_text)
        html_title = corrupt_text(corruption, html_title)
    return BannerRecord(
        ip=ip,
        port=port,
        status_line=status_line,
        headers_text=headers_text,
        html_title=html_title,
        hostname=world.zone.reverse(ip) or "",
        observed_at=world.now,
        country_code=country.code if country else "",
    )


def scan_world(
    world: World,
    ports: Sequence[int] = DEFAULT_SCAN_PORTS,
    *,
    coverage: float = 1.0,
    executor: Optional[Executor] = None,
    probe_latency: float = 0.0,
    resilience: Optional[ResilientRunner] = None,
    shards: Optional[int] = None,
) -> List[BannerRecord]:
    """Banner-grab every visible service in the world.

    ``coverage`` < 1 models a scanner that has only indexed part of the
    address space (Shodan's view is always partial); inclusion is a
    deterministic hash of the ip so repeated scans agree.

    Probing is read-only against the world, so ``executor`` fans the
    scan out over target hosts; per-host batches merge back in address
    order, keeping the record list identical at any worker count.
    ``probe_latency`` models the per-host network round trip.

    ``resilience`` wraps each probe with retry/quarantine (stage
    ``"scan"``) when the world runs under a fault plan; a probe whose
    retries are exhausted is quarantined and its record simply missing —
    scan coverage counters report the gap. No circuit breaker attaches
    here: the fan-out is unordered, and breaker state would then depend
    on scheduling.

    Each :meth:`Executor.map` task scans one contiguous chunk of the
    address-ordered targets: one host by default, or one of ``shards``
    balanced chunks, so a large target list costs ``shards`` pending
    tasks instead of one per host. Chunks merge in address order, so
    the record list is identical at any chunking and worker count.
    World objects cannot cross process boundaries, so world scans
    require the thread backend; the process backend's home is
    :class:`repro.scan.stream.StreamingScan`.
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError("coverage must be within [0, 1]")
    if shards is not None and shards < 1:
        raise ValueError("shards must be >= 1")
    executor = executor or Executor()
    if executor.backend != THREAD_BACKEND:
        raise ValueError(
            "world scans require the thread backend (worlds are not "
            "picklable); use repro.scan.stream.StreamingScan for "
            "process-pool scans"
        )
    targets: List[Ipv4Address] = []
    for ip_value in sorted(world.hosts):
        ip = Ipv4Address(ip_value)
        if coverage < 1.0 and not _covered(ip, coverage):
            continue
        targets.append(ip)
    if shards is None:
        chunks = [[ip] for ip in targets]
    else:
        from repro.world.population import shard_bounds_for

        shard_count = min(shards, len(targets)) or 1
        bounds = [
            shard_bounds_for(len(targets), shard_count, shard)
            for shard in range(shard_count)
        ]
        chunks = [targets[start:stop] for start, stop in bounds]

    def scan_chunk(chunk: List[Ipv4Address]) -> List[BannerRecord]:
        found: List[BannerRecord] = []
        for ip in chunk:
            if probe_latency:
                time.sleep(probe_latency)
            slow = world.faults.extra_latency("scanner", str(ip))
            if slow:
                time.sleep(slow)
            for port in ports:
                if resilience is not None:
                    outcome = resilience.call(
                        lambda port=port: grab_banner(world, ip, port),
                        stage="scan",
                        key=f"{ip}:{port}",
                    )
                    record = outcome.value if outcome.ok else None
                else:
                    record = grab_banner(world, ip, port)
                if record is not None:
                    found.append(record)
        return found

    batches = executor.map(scan_chunk, chunks, label="scan")
    return [record for batch in batches for record in batch]


def _covered(ip: Ipv4Address, coverage: float) -> bool:
    import hashlib

    digest = hashlib.sha256(f"scan:{ip.value}".encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return fraction < coverage
