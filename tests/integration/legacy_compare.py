"""The legacy one-shot if-chain comparator, preserved verbatim.

This is the pre-fusion verdict path that used to live in
``repro.measure.compare``: a fixed precedence ladder ending in a title
short-circuit and a single Jaccard threshold. It is kept as the
baseline the fusion integration tests measure against — the new
middlebox behaviors are *provably* misclassified here.

Do not "improve" this module; its value is that it does not change.
"""

from __future__ import annotations

from typing import Optional

from repro.measure.classifiers.blockpage import BlockPagePatternMatcher
from repro.measure.verdict import Comparison, Verdict
from repro.net.fetch import FetchOutcome, FetchResult

LEGACY_JACCARD_THRESHOLD = 0.4


def legacy_compare(
    field: FetchResult,
    lab: FetchResult,
    matcher: Optional[BlockPagePatternMatcher] = None,
) -> Comparison:
    """Classify a field result with the historical if-chain semantics."""
    matcher = matcher or BlockPagePatternMatcher()
    lab_ok = lab.outcome is FetchOutcome.OK and (lab.status or 0) < 400

    if not lab_ok:
        # The control fetch failed: nothing can be said about censorship.
        return Comparison(Verdict.SITE_DOWN, note=f"lab outcome {lab.outcome.value}")

    if field.outcome is FetchOutcome.TCP_RESET:
        return Comparison(Verdict.BLOCKED_RESET)
    if field.outcome is FetchOutcome.TIMEOUT:
        return Comparison(Verdict.BLOCKED_TIMEOUT)
    if field.outcome is FetchOutcome.DNS_FAILURE:
        return Comparison(
            Verdict.DNS_TAMPERED, note="NXDOMAIN in field, resolvable in lab"
        )
    if field.outcome is not FetchOutcome.OK:
        # NOTE: a TLS-layer reset lands here as a mere ANOMALY — the
        # legacy chain has no notion of SNI filtering. The fusion path
        # classifies it as BLOCKED_SNI.
        return Comparison(Verdict.ANOMALY, note=f"field outcome {field.outcome.value}")

    detection = matcher.detect(field)
    if detection is not None:
        return Comparison(Verdict.BLOCKED_BLOCKPAGE, detection)

    field_status = field.status or 0
    if field_status >= 400 and (lab.status or 0) < 400:
        # An error page the lab does not see and no vendor pattern
        # matched: an unbranded block page (§2.2, §6.1).
        return Comparison(
            Verdict.BLOCKED_UNATTRIBUTED,
            note=f"field HTTP {field_status} vs lab {lab.status}",
        )
    if not _content_similar(field, lab):
        # Both 200 but the field saw a different page — e.g. Netsweeper
        # serves its deny page with HTTP 200. The field/lab comparison
        # (§4.1) is exactly what catches this.
        return Comparison(
            Verdict.BLOCKED_UNATTRIBUTED, note="field content differs from lab"
        )
    return Comparison(Verdict.ACCESSIBLE)


def _content_similar(field: FetchResult, lab: FetchResult) -> bool:
    """Coarse page-equality check between the field and lab views.

    The title short-circuit is the historically load-bearing flaw: an
    HTTP-200 censorship page that spoofs the origin's title reads as
    "similar" here no matter what its body says.
    """
    field_response = field.response
    lab_response = lab.response
    if field_response is None or lab_response is None:
        return field_response is lab_response
    field_title = field_response.html_title()
    lab_title = lab_response.html_title()
    if field_title and lab_title:
        # Both views fetched the SAME URL: the title is decisive.
        return field_title == lab_title
    field_words = set(field_response.body.lower().split())
    lab_words = set(lab_response.body.lower().split())
    if not field_words and not lab_words:
        return True
    union = field_words | lab_words
    if not union:
        return True
    jaccard = len(field_words & lab_words) / len(union)
    return jaccard >= LEGACY_JACCARD_THRESHOLD
