"""Unit tests for fetch outcomes and result helpers."""

from __future__ import annotations

import pytest

from repro.net.fetch import FetchOutcome, FetchResult, Hop
from repro.net.http import HttpRequest, HttpResponse, ok_response, redirect_response
from repro.net.url import Url


def _hop(url: str, response: HttpResponse) -> Hop:
    parsed = Url.parse(url)
    return Hop(HttpRequest.get(parsed), response)


class DescribeFetchResult:
    def test_ok_result_exposes_final_response(self):
        final = ok_response("done", "x")
        result = FetchResult(
            Url.parse("http://a.com/"),
            FetchOutcome.OK,
            [
                _hop("http://a.com/", redirect_response("http://b.com/")),
                _hop("http://b.com/", final),
            ],
        )
        assert result.ok
        assert result.response is final
        assert result.status == 200

    def test_empty_result_has_no_response(self):
        result = FetchResult.failure(
            Url.parse("http://a.com/"), FetchOutcome.TIMEOUT
        )
        assert result.response is None
        assert result.status is None
        assert not result.ok

    def test_failure_rejects_ok_outcome(self):
        with pytest.raises(ValueError):
            FetchResult.failure(Url.parse("http://a.com/"), FetchOutcome.OK)

    @pytest.mark.parametrize(
        "outcome",
        [
            FetchOutcome.DNS_FAILURE,
            FetchOutcome.TCP_RESET,
            FetchOutcome.TIMEOUT,
            FetchOutcome.UNREACHABLE,
        ],
    )
    def test_failure_outcomes_not_ok(self, outcome):
        result = FetchResult.failure(Url.parse("http://a.com/"), outcome, "why")
        assert not result.ok
        assert result.error == "why"
