"""The verdict model: accessibility verdicts, signals, and comparisons.

The types the whole measurement layer speaks: :class:`Verdict` (one
URL's accessibility from one field vantage), :class:`Signal` (one
classifier's weighted opinion about a page record), :class:`Detection`
(a positive vendor attribution) and :class:`Comparison` (the fused final
answer, with a confidence score and the per-signal breakdown that
produced it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class Verdict(enum.Enum):
    """Accessibility of one URL from one field vantage."""

    ACCESSIBLE = "accessible"
    BLOCKED_BLOCKPAGE = "blocked_blockpage"
    #: Field sees an interference page that matches no vendor pattern —
    #: what a fully unbranded block page (§2.2, §6.1) looks like. The
    #: confirmation differential still counts it as blocked; §5
    #: attribution cannot.
    BLOCKED_UNATTRIBUTED = "blocked_unattributed"
    BLOCKED_RESET = "blocked_reset"
    BLOCKED_TIMEOUT = "blocked_timeout"
    #: TLS handshakes torn down on the server name alone while plain
    #: HTTP passes — the SNI-based filtering "How India Censors the
    #: Web" documents. Page content is never touched, so only the
    #: TLS/SNI evidence in the page record reveals it.
    BLOCKED_SNI = "blocked_sni"
    #: The page arrives intact but pathologically slowly compared to the
    #: lab view — soft censorship by throttling rather than denial.
    THROTTLED = "throttled"
    DNS_TAMPERED = "dns_tampered"
    SITE_DOWN = "site_down"  # lab could not reach it either
    ANOMALY = "anomaly"  # field differs from lab, cause unclear
    #: The measurement itself failed (retries exhausted, vantage down,
    #: breaker open): no field/lab pair exists to compare. Explicitly
    #: neither blocked nor accessible — a flaky probe must degrade to
    #: "we do not know", never to a censorship claim.
    INSUFFICIENT = "insufficient_data"

    @property
    def is_blocked(self) -> bool:
        return self in (
            Verdict.BLOCKED_BLOCKPAGE,
            Verdict.BLOCKED_UNATTRIBUTED,
            Verdict.BLOCKED_RESET,
            Verdict.BLOCKED_TIMEOUT,
            Verdict.BLOCKED_SNI,
            Verdict.THROTTLED,
            Verdict.DNS_TAMPERED,
        )


#: Verdict severity for deterministic fusion tie-breaking, most severe
#: first. An explicit block page outranks everything (it is the paper's
#: least ambiguous evidence); network-level denials follow; soft and
#: ambiguous outcomes trail. Equal fused scores resolve by this order,
#: never by signal arrival order.
SEVERITY_ORDER: Tuple[Verdict, ...] = (
    Verdict.BLOCKED_BLOCKPAGE,
    Verdict.DNS_TAMPERED,
    Verdict.BLOCKED_RESET,
    Verdict.BLOCKED_SNI,
    Verdict.BLOCKED_TIMEOUT,
    Verdict.BLOCKED_UNATTRIBUTED,
    Verdict.THROTTLED,
    Verdict.ANOMALY,
    Verdict.SITE_DOWN,
    Verdict.INSUFFICIENT,
    Verdict.ACCESSIBLE,
)

_SEVERITY_RANK = {verdict: rank for rank, verdict in enumerate(SEVERITY_ORDER)}


def severity_rank(verdict: Verdict) -> int:
    """Lower rank = more severe; total order over all verdicts."""
    return _SEVERITY_RANK[verdict]


@dataclass
class Detection:
    """A positive block-page identification."""

    vendor: str
    matched: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Signal:
    """One classifier's opinion about one page record.

    ``confidence`` is the classifier's own calibration in [0, 1];
    fusion combines it with the per-classifier policy weight. A signal
    never decides anything alone — it is evidence, not a verdict.
    """

    classifier: str
    verdict: Verdict
    confidence: float
    evidence: str = ""
    detection: Optional[Detection] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"signal confidence must be in [0, 1]: {self.confidence}"
            )

    def describe(self) -> str:
        return f"{self.classifier}: {self.verdict.value} ({self.confidence:.2f})"


@dataclass
class Comparison:
    """The outcome of comparing one field fetch against the lab fetch.

    ``confidence`` is the fused score behind the verdict (1.0 for
    pre-classifier gates like SITE_DOWN, 0.0 for quarantined probes
    where nothing was measured); ``signals`` is the per-classifier
    breakdown the fusion stage saw, in its canonical order.
    """

    verdict: Verdict
    detection: Optional[Detection] = None
    note: str = ""
    confidence: float = 1.0
    signals: Tuple[Signal, ...] = ()

    @property
    def blocked(self) -> bool:
        return self.verdict.is_blocked

    @property
    def vendor(self) -> Optional[str]:
        return self.detection.vendor if self.detection else None

    def signal_names(self) -> Tuple[str, ...]:
        """Contributing classifier names, for stored breakdowns."""
        return tuple(signal.classifier for signal in self.signals)
