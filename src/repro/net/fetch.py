"""Fetch outcomes: what a client observes when it requests a URL.

A fetch can end in a normal HTTP exchange (possibly after redirects), or
in a network-level failure — DNS error, TCP reset, or timeout. The
measurement client (§4.1) compares field and lab outcomes, and the paper
notes that the products studied serve *explicit block pages*, avoiding
the ambiguity of resets/drops; the model still supports those failure
modes so the comparator has something to disambiguate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Protocol

from repro.net.http import HttpRequest, HttpResponse
from repro.net.url import Url


class FetchOutcome(enum.Enum):
    """Network-level result of attempting to fetch a URL."""

    OK = "ok"  # an HTTP response was received (any status)
    DNS_FAILURE = "dns_failure"
    TCP_RESET = "tcp_reset"
    #: The TLS handshake was torn down before any HTTP exchange — what
    #: SNI-based filtering looks like from the client. Distinct from
    #: TCP_RESET (the TCP layer connected fine) so the comparator can
    #: tell server-name filtering from connection-level denial.
    TLS_RESET = "tls_reset"
    TIMEOUT = "timeout"
    UNREACHABLE = "unreachable"
    TOO_MANY_REDIRECTS = "too_many_redirects"
    #: The measurement infrastructure itself failed (retries exhausted
    #: against injected or real faults). Distinct from TIMEOUT/TCP_RESET,
    #: which describe what the *network path* did to the request and feed
    #: the blocking comparator; an INFRA_FAILURE carries no censorship
    #: signal and the comparator must yield "insufficient data" for it.
    INFRA_FAILURE = "infra_failure"


@dataclass
class Hop:
    """One request/response exchange within a redirect chain."""

    request: HttpRequest
    response: HttpResponse


@dataclass
class FetchResult:
    """Everything observed while fetching one URL.

    ``hops`` records each exchange including redirects; ``response`` is
    the final response (None unless outcome is OK or TOO_MANY_REDIRECTS
    with at least one hop).

    ``elapsed_ms`` is the world's deterministic latency model (per-hop
    base cost plus any on-path device delay), not wall-clock time;
    ``rst_injected`` records an on-wire RST that lost the race with the
    origin's content — the page arrived anyway, but the wire-level
    evidence of injection remains.
    """

    url: Url
    outcome: FetchOutcome
    hops: List[Hop] = field(default_factory=list)
    error: Optional[str] = None
    elapsed_ms: float = 0.0
    rst_injected: bool = False

    @property
    def response(self) -> Optional[HttpResponse]:
        return self.hops[-1].response if self.hops else None

    @property
    def ok(self) -> bool:
        return self.outcome is FetchOutcome.OK

    @property
    def status(self) -> Optional[int]:
        response = self.response
        return response.status if response else None

    @classmethod
    def failure(
        cls, url: Url, outcome: FetchOutcome, error: Optional[str] = None
    ) -> "FetchResult":
        if outcome is FetchOutcome.OK:
            raise ValueError("failure() requires a non-OK outcome")
        return cls(url, outcome, [], error)


class Fetcher(Protocol):
    """Anything that can fetch a URL on behalf of a client address."""

    def fetch(self, url: Url, *, follow_redirects: bool = True) -> FetchResult:
        """Fetch ``url`` and return the observed result."""
        ...  # pragma: no cover
