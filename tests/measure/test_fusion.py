"""Unit and property tests for the confidence-fusion stage.

``fuse`` must be a pure, order-invariant function: permuting the input
signals changes nothing (bit-identical confidence included), ties break
by verdict severity then classifier name, weak evidence lands in the
INSUFFICIENT band, and inconclusive-filter signals demote blocked
winners.
"""

from __future__ import annotations

import itertools

import pytest

from repro.measure.classifiers import INSUFFICIENT_FLOOR, fuse
from repro.measure.verdict import (
    SEVERITY_ORDER,
    Signal,
    Verdict,
    severity_rank,
)


def sig(classifier, verdict, confidence, evidence="") -> Signal:
    return Signal(
        classifier=classifier,
        verdict=verdict,
        confidence=confidence,
        evidence=evidence,
    )


class DescribeNoisyOr:
    def test_single_signal_score_is_its_confidence(self):
        comparison = fuse([sig("rst-timeout", Verdict.BLOCKED_RESET, 0.8)])
        assert comparison.verdict is Verdict.BLOCKED_RESET
        assert comparison.confidence == pytest.approx(0.8)

    def test_agreeing_signals_reinforce_without_exceeding_one(self):
        comparison = fuse(
            [
                sig("status-anomaly", Verdict.BLOCKED_UNATTRIBUTED, 0.7),
                sig("page-delta", Verdict.BLOCKED_UNATTRIBUTED, 0.75),
            ]
        )
        # 1 - (1-0.7)(1-0.75) = 0.925: stronger than either alone.
        assert comparison.confidence == pytest.approx(0.925)
        assert comparison.confidence < 1.0

    def test_one_strong_signal_beats_a_stack_of_circumstantial_ones(self):
        """Paper-default calibration: an explicit block page wins."""
        comparison = fuse(
            [
                sig("blockpage", Verdict.BLOCKED_BLOCKPAGE, 0.95),
                sig("status-anomaly", Verdict.BLOCKED_UNATTRIBUTED, 0.7),
                sig("page-delta", Verdict.BLOCKED_UNATTRIBUTED, 0.75),
            ]
        )
        assert comparison.verdict is Verdict.BLOCKED_BLOCKPAGE

    def test_no_signals_is_accessible(self):
        comparison = fuse([])
        assert comparison.verdict is Verdict.ACCESSIBLE
        assert comparison.confidence == 1.0


class DescribePermutationInvariance:
    SIGNALS = [
        sig("blockpage", Verdict.BLOCKED_BLOCKPAGE, 0.95),
        sig("rst-timeout", Verdict.BLOCKED_RESET, 0.8),
        sig("status-anomaly", Verdict.BLOCKED_UNATTRIBUTED, 0.7),
        sig("page-delta", Verdict.BLOCKED_UNATTRIBUTED, 0.75),
    ]

    def test_every_permutation_fuses_identically(self):
        """Property: all 24 orderings yield the same comparison —
        verdict, bit-identical confidence, and signal breakdown."""
        baseline = fuse(self.SIGNALS)
        for permutation in itertools.permutations(self.SIGNALS):
            comparison = fuse(list(permutation))
            assert comparison.verdict is baseline.verdict
            assert comparison.confidence == baseline.confidence  # exact
            assert comparison.signals == baseline.signals
            assert comparison.note == baseline.note

    def test_breakdown_is_in_canonical_order(self):
        comparison = fuse(list(reversed(self.SIGNALS)))
        names = comparison.signal_names()
        assert list(names) == sorted(names)


class DescribeTieBreaking:
    def test_equal_scores_resolve_by_verdict_severity(self):
        comparison = fuse(
            [
                sig("throttle", Verdict.THROTTLED, 0.7),
                sig("rst-timeout", Verdict.BLOCKED_TIMEOUT, 0.7),
            ]
        )
        assert comparison.verdict is Verdict.BLOCKED_TIMEOUT
        assert severity_rank(Verdict.BLOCKED_TIMEOUT) < severity_rank(
            Verdict.THROTTLED
        )

    def test_equal_primary_signals_resolve_by_classifier_name(self):
        comparison = fuse(
            [
                sig("zz-custom", Verdict.BLOCKED_RESET, 0.8, "from zz"),
                sig("aa-custom", Verdict.BLOCKED_RESET, 0.8, "from aa"),
            ]
        )
        assert comparison.note == "from aa"

    def test_severity_order_covers_every_verdict(self):
        assert set(SEVERITY_ORDER) == set(Verdict)
        assert len(SEVERITY_ORDER) == len(Verdict)


class DescribeInsufficientBand:
    def test_weak_winner_degrades_to_insufficient(self):
        assert 0.25 < INSUFFICIENT_FLOOR
        comparison = fuse(
            [sig("page-delta", Verdict.BLOCKED_UNATTRIBUTED, 0.25)]
        )
        assert comparison.verdict is Verdict.INSUFFICIENT
        assert "too weak" in comparison.note
        assert comparison.confidence == 0.25

    def test_default_floor_passes_every_default_classifier(self):
        """Every shipped classifier's solo signal clears the band."""
        for confidence in (0.7, 0.75, 0.8, 0.85, 0.95):
            comparison = fuse(
                [sig("x", Verdict.BLOCKED_UNATTRIBUTED, confidence)]
            )
            assert comparison.verdict is Verdict.BLOCKED_UNATTRIBUTED


class DescribeDemotions:
    def test_filter_signal_demotes_a_blocked_winner(self):
        comparison = fuse(
            [
                sig("status-anomaly", Verdict.BLOCKED_UNATTRIBUTED, 0.7),
                sig(
                    "cdn-captcha",
                    Verdict.INSUFFICIENT,
                    0.8,
                    "CDN anti-abuse interstitial: matched 'cf-chl'",
                ),
            ]
        )
        assert comparison.verdict is Verdict.INSUFFICIENT
        assert "demoted" in comparison.note
        assert "cf-chl" in comparison.note

    def test_filter_alone_is_insufficient_not_accessible(self):
        comparison = fuse(
            [sig("seized-domain", Verdict.INSUFFICIENT, 0.8, "seized")]
        )
        assert comparison.verdict is Verdict.INSUFFICIENT
        assert comparison.confidence == pytest.approx(0.8)

    def test_demotion_preserves_the_signal_breakdown(self):
        comparison = fuse(
            [
                sig("blockpage", Verdict.BLOCKED_BLOCKPAGE, 0.95),
                sig("isp-login-portal", Verdict.INSUFFICIENT, 0.8),
            ]
        )
        assert comparison.verdict is Verdict.INSUFFICIENT
        assert set(comparison.signal_names()) == {
            "blockpage",
            "isp-login-portal",
        }


class DescribeSignalValidation:
    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_confidence_outside_unit_interval_is_rejected(self, bad):
        with pytest.raises(ValueError):
            sig("x", Verdict.BLOCKED_RESET, bad)
