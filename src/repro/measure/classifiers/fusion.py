"""Deterministic fusion of classifier signals.

``fuse`` is a pure function from a bag of signals to a
:class:`~repro.measure.verdict.Comparison`: per-verdict scores combine
signal confidences noisy-or style (two independent weak signals for the
same verdict reinforce each other, but never exceed certainty), the
highest score wins, and *all* ties resolve by the fixed verdict
severity order and then by classifier name — never by signal arrival
order, so permuting the input changes nothing. Signals are not
weighted: each classifier's own confidence calibration already encodes
how decisive its evidence is (an explicit block page at 0.95 outranks
any default stack of circumstantial content signals).

Two safety bands preserve the chaos invariant (injected faults may
degrade a verdict toward INSUFFICIENT, never manufacture one):

- a winner scoring below :data:`INSUFFICIENT_FLOOR` yields INSUFFICIENT —
  weak circumstantial evidence is "we do not know", not a claim; and
- any inconclusive-filter signal (CDN captcha, seized domain, ISP
  portal) demotes a blocked winner to INSUFFICIENT outright.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.measure.classifiers.blockpage import (
    BlockPageClassifier,
    BlockPagePatternMatcher,
)
from repro.measure.classifiers.content import (
    PageDeltaClassifier,
    StatusAnomalyClassifier,
)
from repro.measure.classifiers.filters import default_filters
from repro.measure.classifiers.network import (
    DnsTamperingClassifier,
    ResetTimeoutClassifier,
    RstInjectionClassifier,
    SniFilterClassifier,
)
from repro.measure.classifiers.record import PageRecord
from repro.measure.classifiers.throttle import ThrottlingClassifier
from repro.measure.verdict import (
    Comparison,
    Signal,
    Verdict,
    severity_rank,
)
from repro.net.fetch import FetchOutcome, FetchResult

#: Winning scores below this band yield INSUFFICIENT: weak evidence
#: must degrade to "we do not know", never to a censorship claim.
INSUFFICIENT_FLOOR = 0.3


def _canonical_order(signals: Iterable[Signal]) -> Tuple[Signal, ...]:
    """A deterministic signal order independent of arrival order."""
    return tuple(
        sorted(
            signals,
            key=lambda s: (s.classifier, s.verdict.value, -s.confidence),
        )
    )


def fuse(signals: Sequence[Signal]) -> Comparison:
    """Combine signals into the final comparison (pure, order-invariant).

    INSUFFICIENT-verdict signals are demotion evidence from the
    inconclusive filters: they never win on score, but any one of them
    forces a blocked winner down to INSUFFICIENT.
    """
    ordered = _canonical_order(signals)
    demotions = [s for s in ordered if s.verdict is Verdict.INSUFFICIENT]
    votes = [s for s in ordered if s.verdict is not Verdict.INSUFFICIENT]

    if not votes:
        if demotions:
            return Comparison(
                Verdict.INSUFFICIENT,
                note=demotions[0].evidence,
                confidence=max(s.confidence for s in demotions),
                signals=ordered,
            )
        return Comparison(Verdict.ACCESSIBLE, confidence=1.0)

    # Noisy-or per verdict, multiplied in canonical signal order so the
    # float result is bit-identical under input permutation.
    residual: Dict[Verdict, float] = {}
    for signal in votes:
        residual[signal.verdict] = residual.get(signal.verdict, 1.0) * (
            1.0 - signal.confidence
        )
    scores = {verdict: 1.0 - r for verdict, r in residual.items()}

    winner = min(
        scores,
        key=lambda v: (-scores[v], severity_rank(v), v.value),
    )
    score = scores[winner]
    # The winner's strongest signal carries the attribution and the
    # note; equal strengths resolve by classifier name.
    primary = min(
        (s for s in votes if s.verdict is winner),
        key=lambda s: (-s.confidence, s.classifier),
    )

    if score < INSUFFICIENT_FLOOR:
        return Comparison(
            Verdict.INSUFFICIENT,
            note=(
                f"signals too weak for a verdict (best "
                f"{winner.value} at {score:.2f})"
            ),
            confidence=score,
            signals=ordered,
        )
    if demotions and winner.is_blocked:
        return Comparison(
            Verdict.INSUFFICIENT,
            note=(
                f"{winner.value} ({score:.2f}) demoted: "
                f"{demotions[0].evidence}"
            ),
            confidence=max(s.confidence for s in demotions),
            signals=ordered,
        )
    return Comparison(
        winner,
        detection=primary.detection,
        note=primary.evidence,
        confidence=score,
        signals=ordered,
    )


def default_classifiers(
    matcher: Optional[BlockPagePatternMatcher] = None,
) -> Tuple[object, ...]:
    """The standard classifier set, in canonical order."""
    if matcher is None:
        matcher = BlockPagePatternMatcher()
    return (
        BlockPageClassifier(matcher),
        DnsTamperingClassifier(),
        ResetTimeoutClassifier(),
        RstInjectionClassifier(),
        SniFilterClassifier(),
        StatusAnomalyClassifier(),
        PageDeltaClassifier(),
        ThrottlingClassifier(),
    )


class VerdictEngine:
    """The evidence-based verdict path: record → classifiers → fusion.

    Two gates run before any classifier, mirroring the §4.1 preconditions:

    - an INFRA_FAILURE field result means the measurement itself failed
      (quarantine placeholder): INSUFFICIENT at zero confidence;
    - a failed control fetch means nothing can be said about censorship:
      SITE_DOWN.

    Everything else flows through the classifier set and ``fuse``.
    """

    def __init__(
        self,
        *,
        matcher: Optional[BlockPagePatternMatcher] = None,
    ) -> None:
        self.classifiers = default_classifiers(matcher)
        self.filters = default_filters()

    def compare(self, field: FetchResult, lab: FetchResult) -> Comparison:
        """Classify a field result given the lab's view of the same URL."""
        return self.classify(PageRecord.from_results(field, lab))

    def classify(self, record: PageRecord) -> Comparison:
        if record.field.outcome is FetchOutcome.INFRA_FAILURE:
            return Comparison(
                Verdict.INSUFFICIENT,
                note=record.field_result.error or "measurement failed",
                confidence=0.0,
            )
        if not record.lab_ok:
            # The control fetch failed: nothing can be said about
            # censorship.
            return Comparison(
                Verdict.SITE_DOWN,
                note=f"lab outcome {record.lab.outcome.value}",
                confidence=0.9,
            )
        signals = [
            signal
            for classifier in self.classifiers
            for signal in (classifier.classify(record),)
            if signal is not None
        ]
        signals.extend(
            signal
            for page_filter in self.filters
            for signal in (page_filter.applies(record),)
            if signal is not None
        )
        if not signals:
            if record.field.ok:
                return Comparison(Verdict.ACCESSIBLE, confidence=1.0)
            return Comparison(
                Verdict.ANOMALY,
                note=f"field outcome {record.field.outcome.value}",
                confidence=0.5,
            )
        return fuse(signals)
