"""Unit tests for the field-vs-lab comparator."""

from __future__ import annotations

import pytest

from repro.measure.classifiers import VerdictEngine
from repro.measure.verdict import Verdict
from repro.net.fetch import FetchOutcome, FetchResult, Hop
from repro.net.http import HttpRequest, HttpResponse, Headers, ok_response
from repro.net.url import Url

URL = Url.parse("http://site.example.com/")


def ok_result(title="Site", body="<h1>Site</h1><p>welcome visitors</p>") -> FetchResult:
    response = ok_response(title, body)
    return FetchResult(URL, FetchOutcome.OK, [Hop(HttpRequest.get(URL), response)])


def failed(outcome: FetchOutcome) -> FetchResult:
    return FetchResult.failure(URL, outcome, "boom")


def compare(field: FetchResult, lab: FetchResult):
    return VerdictEngine().compare(field, lab)


class DescribeVerdicts:
    def test_identical_pages_accessible(self):
        comparison = compare(ok_result(), ok_result())
        assert comparison.verdict is Verdict.ACCESSIBLE
        assert not comparison.blocked

    def test_lab_failure_means_site_down(self):
        comparison = compare(ok_result(), failed(FetchOutcome.TIMEOUT))
        assert comparison.verdict is Verdict.SITE_DOWN

    def test_lab_error_status_means_site_down(self):
        error = FetchResult(
            URL, FetchOutcome.OK,
            [Hop(HttpRequest.get(URL), HttpResponse(500, Headers(), "oops"))],
        )
        assert compare(ok_result(), error).verdict is Verdict.SITE_DOWN

    def test_field_reset(self):
        comparison = compare(failed(FetchOutcome.TCP_RESET), ok_result())
        assert comparison.verdict is Verdict.BLOCKED_RESET
        assert comparison.blocked

    def test_field_timeout(self):
        assert (
            compare(failed(FetchOutcome.TIMEOUT), ok_result()).verdict
            is Verdict.BLOCKED_TIMEOUT
        )

    def test_field_nxdomain_is_dns_tampering(self):
        comparison = compare(failed(FetchOutcome.DNS_FAILURE), ok_result())
        assert comparison.verdict is Verdict.DNS_TAMPERED
        assert comparison.blocked

    def test_field_unreachable_is_anomaly(self):
        assert (
            compare(failed(FetchOutcome.UNREACHABLE), ok_result()).verdict
            is Verdict.ANOMALY
        )

    def test_unattributed_403_counts_blocked(self):
        field = FetchResult(
            URL, FetchOutcome.OK,
            [Hop(
                HttpRequest.get(URL),
                HttpResponse(403, Headers(), "<h1>Denied</h1>"),
            )],
        )
        comparison = compare(field, ok_result())
        assert comparison.verdict is Verdict.BLOCKED_UNATTRIBUTED
        assert comparison.blocked
        assert comparison.vendor is None

    def test_divergent_200_content_counts_blocked(self):
        """Netsweeper-style 200 deny page with all branding scrubbed."""
        field = FetchResult(
            URL, FetchOutcome.OK,
            [Hop(
                HttpRequest.get(URL),
                ok_response(
                    "Page Blocked",
                    "<h1>The page you requested is unavailable on this "
                    "network by policy decision of the operator</h1>",
                ),
            )],
        )
        comparison = compare(field, ok_result())
        assert comparison.verdict is Verdict.BLOCKED_UNATTRIBUTED

    def test_minor_content_differences_still_accessible(self):
        field = ok_result(body="<h1>Site</h1><p>welcome visitors today</p>")
        lab = ok_result(body="<h1>Site</h1><p>welcome visitors</p>")
        assert compare(field, lab).verdict is Verdict.ACCESSIBLE

    def test_same_title_short_circuit(self):
        field = ok_result(title="Site", body="completely different words here")
        lab = ok_result(title="Site", body="other body text entirely now")
        assert compare(field, lab).verdict is Verdict.ACCESSIBLE

    def test_blocked_verdicts_flagged(self):
        for verdict in Verdict:
            expected = verdict in (
                Verdict.BLOCKED_BLOCKPAGE,
                Verdict.BLOCKED_UNATTRIBUTED,
                Verdict.BLOCKED_RESET,
                Verdict.BLOCKED_TIMEOUT,
                Verdict.BLOCKED_SNI,
                Verdict.THROTTLED,
                Verdict.DNS_TAMPERED,
            )
            assert verdict.is_blocked is expected
