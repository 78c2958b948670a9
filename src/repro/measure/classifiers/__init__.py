"""Pluggable verdict classifiers with confidence fusion.

The evidence-based verdict path (modeled on Berkman's classifurlr):
every field/lab fetch pair becomes a structured
:class:`~repro.measure.classifiers.record.PageRecord`; a set of
independent classifiers each emit a
:class:`~repro.measure.verdict.Signal` (verdict, confidence, evidence);
inconclusive filters contribute demotion evidence; and a deterministic
fusion stage (:func:`~repro.measure.classifiers.fusion.fuse`)
produces the final :class:`~repro.measure.verdict.Comparison` with a
confidence score and the full per-signal breakdown.

:class:`VerdictEngine` is the front door.
"""

from repro.measure.classifiers.blockpage import (
    BlockPageClassifier,
    BlockPagePatternMatcher,
    default_patterns,
)
from repro.measure.classifiers.content import (
    DIVERGENT_JACCARD,
    SPOOFED_TITLE_JACCARD,
    PageDeltaClassifier,
    StatusAnomalyClassifier,
)
from repro.measure.classifiers.filters import (
    CdnCaptchaFilter,
    IspLoginPortalFilter,
    SeizedDomainFilter,
    default_filters,
)
from repro.measure.classifiers.fusion import (
    INSUFFICIENT_FLOOR,
    VerdictEngine,
    default_classifiers,
    fuse,
)
from repro.measure.classifiers.network import (
    DnsTamperingClassifier,
    ResetTimeoutClassifier,
    RstInjectionClassifier,
    SniFilterClassifier,
)
from repro.measure.classifiers.record import PageRecord, PageView
from repro.measure.classifiers.throttle import ThrottlingClassifier
from repro.measure.verdict import (
    Comparison,
    Detection,
    Signal,
    Verdict,
    severity_rank,
)

__all__ = [
    "BlockPageClassifier",
    "BlockPagePatternMatcher",
    "CdnCaptchaFilter",
    "Comparison",
    "DIVERGENT_JACCARD",
    "Detection",
    "DnsTamperingClassifier",
    "INSUFFICIENT_FLOOR",
    "IspLoginPortalFilter",
    "PageDeltaClassifier",
    "PageRecord",
    "PageView",
    "ResetTimeoutClassifier",
    "RstInjectionClassifier",
    "SPOOFED_TITLE_JACCARD",
    "SeizedDomainFilter",
    "Signal",
    "SniFilterClassifier",
    "StatusAnomalyClassifier",
    "ThrottlingClassifier",
    "Verdict",
    "VerdictEngine",
    "default_classifiers",
    "default_filters",
    "default_patterns",
    "fuse",
    "severity_rank",
]
