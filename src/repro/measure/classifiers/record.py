"""The page-record evidence layer.

Every field/lab fetch pair is distilled into one structured
:class:`PageRecord` — DNS outcome, TCP/TLS outcome, status, title,
body features, header text, timings — before any classifier sees it.
Classifiers read records, never raw fetch machinery, which keeps them
independent and unit-testable over crafted evidence (the HAR-like page
records Berkman's classifurlr scores are the architectural model).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.net.fetch import FetchOutcome, FetchResult
from repro.net.url import Url

_TAG_RE = re.compile(r"<([a-zA-Z][a-zA-Z0-9]*)")


def _tag_profile(body: str) -> Tuple[str, ...]:
    """The ordered HTML tag sequence — a cheap page-structure signature."""
    return tuple(tag.lower() for tag in _TAG_RE.findall(body))


@dataclass(frozen=True)
class PageView:
    """One vantage's distilled evidence for one URL."""

    outcome: FetchOutcome
    status: Optional[int]
    title: Optional[str]
    body: str
    body_length: int
    tag_profile: Tuple[str, ...]
    headers_text: str
    elapsed_ms: float
    rst_injected: bool
    hop_count: int

    @property
    def ok(self) -> bool:
        return self.outcome is FetchOutcome.OK

    @classmethod
    def from_result(cls, result: FetchResult) -> "PageView":
        response = result.response
        body = response.body if response is not None else ""
        headers_text = ""
        if response is not None:
            headers_text = (
                f"{response.status_line()}\n{response.headers.as_text()}"
            )
        return cls(
            outcome=result.outcome,
            status=result.status,
            title=response.html_title() if response is not None else None,
            body=body,
            body_length=len(body),
            tag_profile=_tag_profile(body),
            headers_text=headers_text,
            elapsed_ms=getattr(result, "elapsed_ms", 0.0),
            rst_injected=getattr(result, "rst_injected", False),
            hop_count=len(result.hops),
        )

    def word_set(self) -> frozenset:
        return frozenset(self.body.lower().split())


@dataclass(frozen=True)
class PageRecord:
    """The full evidence for one URL: field view vs lab view.

    The raw :class:`~repro.net.fetch.FetchResult` pair rides along for
    classifiers that need the hop chain (the block-page matcher inspects
    every redirect hop's headers and request URLs), but classifiers
    should prefer the distilled views wherever they suffice.
    """

    url: Url
    field: PageView
    lab: PageView
    field_result: FetchResult
    lab_result: FetchResult

    @classmethod
    def from_results(
        cls, field_result: FetchResult, lab_result: FetchResult
    ) -> "PageRecord":
        return cls(
            url=field_result.url,
            field=PageView.from_result(field_result),
            lab=PageView.from_result(lab_result),
            field_result=field_result,
            lab_result=lab_result,
        )

    @property
    def lab_ok(self) -> bool:
        """The control view succeeded: censorship claims are possible."""
        return self.lab.ok and (self.lab.status or 0) < 400

    def word_jaccard(self) -> float:
        """Word-set overlap between the two bodies (1.0 = identical sets)."""
        field_words = self.field.word_set()
        lab_words = self.lab.word_set()
        union = field_words | lab_words
        if not union:
            return 1.0
        return len(field_words & lab_words) / len(union)

    def tag_jaccard(self) -> float:
        """Structural overlap between the two pages' tag inventories."""
        field_tags = set(self.field.tag_profile)
        lab_tags = set(self.lab.tag_profile)
        union = field_tags | lab_tags
        if not union:
            return 1.0
        return len(field_tags & lab_tags) / len(union)

    def length_ratio(self) -> float:
        """Smaller body over larger body (1.0 = equal length)."""
        larger = max(self.field.body_length, self.lab.body_length)
        if larger == 0:
            return 1.0
        return min(self.field.body_length, self.lab.body_length) / larger
