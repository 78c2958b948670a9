"""WhatWeb-style fingerprinting of candidate installations.

§3.1's validation step: "we use the WhatWeb profiling tool to confirm
the product that is installed on a given host", using built-in plugins
where they exist and custom header signatures otherwise (Table 2). The
engine probes a live IP over a small (port, path) plan and applies every
product signature; a host may legitimately match several products
(stacked appliances, §4.5).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.net.fetch import FetchOutcome
from repro.net.http import HttpResponse
from repro.net.ip import Ipv4Address
from repro.net.url import Url
from repro.products.registry import default_registry
from repro.products.signatures import Evidence, ProbeObservation, SignatureFn
from repro.world.world import World

# A probe function fetches (ip, port, path) and returns the raw response.
ProbeFn = Callable[[Ipv4Address, int, str], Optional[HttpResponse]]


@dataclass
class ProductMatch:
    product: str
    evidence: List[Evidence]


@dataclass
class WhatWebReport:
    """Everything WhatWeb concluded about one IP."""

    ip: Ipv4Address
    observations: List[ProbeObservation]
    matches: List[ProductMatch] = field(default_factory=list)

    @property
    def products(self) -> List[str]:
        return [match.product for match in self.matches]

    def matched(self, product: str) -> bool:
        return product in self.products


def world_probe(world: World) -> ProbeFn:
    """A probe function backed by open-Internet fetches in ``world``."""

    def probe(ip: Ipv4Address, port: int, path: str) -> Optional[HttpResponse]:
        scheme = "https" if port in (443, 8443) else "http"
        url = Url(scheme, str(ip), port, path)
        result = world.fetch(None, url, follow_redirects=False)
        if result.outcome is not FetchOutcome.OK:
            return None
        return result.response

    return probe


class WhatWebEngine:
    """Signature engine: probe a host and report matching products."""

    def __init__(
        self,
        probe: ProbeFn,
        signatures: Optional[Dict[str, SignatureFn]] = None,
        probe_plan: Optional[Sequence] = None,
    ) -> None:
        """``signatures`` and ``probe_plan`` default to the registry's
        Table 2 for the paper's four vendors."""
        registry = default_registry()
        self._probe = probe
        self._signatures = dict(signatures or registry.whatweb_signatures())
        self._probe_plan = list(
            registry.probe_plan() if probe_plan is None else probe_plan
        )
        self.probe_count = 0
        # identify() runs concurrently under the parallel executor; the
        # probe counter must not lose increments to racing threads.
        self._count_lock = threading.Lock()

    def identify(self, ip: Ipv4Address) -> WhatWebReport:
        """Probe one IP and apply every signature."""
        observations: List[ProbeObservation] = []
        for port, path in self._probe_plan:
            with self._count_lock:
                self.probe_count += 1
            response = self._probe(ip, port, path)
            observations.append(ProbeObservation(port, path, response))
        report = WhatWebReport(ip, observations)
        for product, signature in self._signatures.items():
            evidence = signature(observations)
            if evidence:
                report.matches.append(ProductMatch(product, evidence))
        return report
