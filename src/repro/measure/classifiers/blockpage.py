"""Block-page similarity against the registry's §5 regex corpus.

§5: "Manual analysis identified regular expressions corresponding to the
vendors' block pages and automated analysis identified all URLs which
matched a given block page regular expression." The corpus comes from
the product registry's per-spec patterns and covers both branded and
structural signals, so detection degrades gracefully as vendors strip
branding (§2.2) — the structural patterns (deny-page paths, the 15871
port, cfauth redirects) survive cosmetic changes.

The classifier wraps the matcher to emit a fusion
:class:`~repro.measure.verdict.Signal` instead of deciding the verdict
alone.
"""

from __future__ import annotations

import functools
import re
from typing import Dict, List, Optional, Pattern, Sequence, Set, Tuple

from repro.measure.classifiers.record import PageRecord
from repro.measure.verdict import Detection, Signal, Verdict
from repro.net.fetch import FetchResult
from repro.products.registry import (
    CompiledBlockPattern as BlockPagePattern,
    default_registry,
)

try:  # Python 3.11+
    from re import _parser as _sre_parse
except ImportError:  # pragma: no cover - Python 3.10
    import sre_parse as _sre_parse  # type: ignore[no-redef]

#: The non-ASCII characters that ``re.IGNORECASE`` matches against an
#: ASCII character, or whose ``str.lower()`` contains one: U+0130 İ,
#: U+0131 ı, U+017F ſ and U+212A K (Kelvin sign). A text holding any of
#: them is searched with every pattern, because lower-casing it does not
#: show every case-insensitive match of an ASCII literal.
FOLD_GUARD = "\u0130\u0131\u017f\u212a"

#: The patterns one hop text is searched with: (vote id, regex, literal).
_Plan = List[Tuple[int, Pattern, Optional[str]]]


def default_patterns() -> Sequence[BlockPagePattern]:
    """The §5 regex corpus for the paper's default products."""
    return default_registry().block_page_patterns()


@functools.lru_cache(maxsize=256)
def required_literal(pattern: Pattern) -> Optional[str]:
    """The lower-cased text every match of ``pattern`` must contain.

    This is the longest run of consecutive top-level literal characters
    in the tree :mod:`re` parses the pattern into. A literal inside a
    group, a character class or under a quantifier never counts:
    ``(abc)?def`` yields ``def``. A top-level alternation leaves no
    literal. The parser only ever rewrites a pattern into an equivalent
    one, and a few rewrites do yield a literal: ``(?:ab)c`` and
    ``a[b]c`` parse as ``abc``, and ``xa|xb`` as ``x[ab]``. Bytes and
    ``re.VERBOSE`` patterns have no literal, nor does a run with a
    non-ASCII character, whose case-insensitive matches ``str.lower()``
    does not model.
    """
    if isinstance(pattern.pattern, bytes) or pattern.flags & re.VERBOSE:
        return None
    runs = [""]
    for op, av in _sre_parse.parse(pattern.pattern, pattern.flags):
        if op is _sre_parse.BRANCH:
            return None
        if op is _sre_parse.LITERAL:
            runs[-1] += chr(av)
        elif runs[-1]:
            runs.append("")
    literal = max(runs, key=len).lower()
    return literal if literal and literal.isascii() else None


def _folded(text: str) -> Optional[str]:
    """``text`` lower-cased for the literal gate; None searches everything."""
    if not text.isascii() and any(c in text for c in FOLD_GUARD):
        return None
    return text.lower()


class BlockPagePatternMatcher:
    """Matches a fetch result against the block-page regex corpus.

    Generic proxy residue (Via / Via-Proxy headers) is deliberately NOT
    block evidence: proxy appliances stamp those on every forwarded
    response, censored or not (that residue is what the Netalyzr-style
    fingerprinting in :mod:`repro.measure.netalyzr` reads instead).

    A pattern's regex runs on a text only when its
    :func:`required_literal` occurs in the lower-cased text, which never
    changes the result: a match contains the literal, and without a
    :data:`FOLD_GUARD` character every case-insensitive match of an
    ASCII literal is a substring of the lower-cased text.
    """

    def __init__(
        self, patterns: Optional[Sequence[BlockPagePattern]] = None
    ) -> None:
        self._patterns = list(
            default_patterns() if patterns is None else patterns
        )
        # Only distinct patterns vote, so each (vendor, regex) pair has
        # one id, and a pair that has matched is never searched again.
        self._vote_keys: List[Tuple[str, str]] = []
        ids: Dict[Tuple[str, str], int] = {}
        # One plan per hop text: the header text, the body, the request URL.
        plans: Tuple[_Plan, _Plan, _Plan] = ([], [], [])
        for p in self._patterns:
            key = (p.vendor, p.pattern.pattern)
            if key not in ids:
                ids[key] = len(self._vote_keys)
                self._vote_keys.append(key)
            entry = (ids[key], p.pattern, required_literal(p.pattern))
            if p.scope != "body":
                plans[0].append(entry)
            if p.scope != "headers":
                plans[1].append(entry)
            # Request URLs matter too: after following a deny redirect
            # the final request path contains webadmin/deny or
            # blockpage.cgi. Only *structural* (non-branded) patterns
            # apply here — a vendor's own hostname
            # (denypagetests.netsweeper.com) must not read as a block
            # page.
            if p.scope == "any" and not p.branded:
                plans[2].append(entry)
        self._plans = plans

    @classmethod
    def for_products(
        cls, products: Optional[Sequence[str]] = None
    ) -> "BlockPagePatternMatcher":
        """A matcher over the registry corpus for a product selection."""
        return cls(default_registry().block_page_patterns(products))

    def detect(self, result: FetchResult) -> Optional[Detection]:
        """Attribute a fetch to a vendor's block flow, if any pattern hits.

        Every hop is inspected — deny flows are redirect chains, and the
        telltale strings often live in the *first* hop's Location header
        rather than the final page.
        """
        hits: Set[int] = set()
        for hop in result.hops:
            response = hop.response
            texts = (
                f"{response.status_line()}\n{response.headers.as_text()}",
                response.body,
                str(hop.request.url),
            )
            for text, plan in zip(texts, self._plans):
                folded = _folded(text)
                for vote, regex, literal in plan:
                    if vote in hits or (
                        literal is not None
                        and folded is not None
                        and literal not in folded
                    ):
                        continue
                    if regex.search(text):
                        hits.add(vote)
        if not hits:
            return None
        votes: Dict[str, List[str]] = {}
        for vote in hits:
            vendor, source = self._vote_keys[vote]
            votes.setdefault(vendor, []).append(source)
        # Most distinct patterns wins; ties break lexicographically by
        # vendor name so the verdict never depends on corpus order.
        best_vendor = min(votes, key=lambda v: (-len(votes[v]), v))
        return Detection(best_vendor, sorted(votes[best_vendor]))


class BlockPageClassifier:
    """The least ambiguous evidence the paper uses: an explicit block page.

    Fires only on a completed field exchange; a vendor pattern match is
    near-certain, so the confidence outranks any stack of circumstantial
    content signals at default fusion weights.
    """

    name = "blockpage"
    confidence = 0.95

    def __init__(
        self, matcher: Optional[BlockPagePatternMatcher] = None
    ) -> None:
        self.matcher = matcher or BlockPagePatternMatcher()

    def classify(self, record: PageRecord) -> Optional[Signal]:
        if not record.field.ok:
            return None
        detection = self.matcher.detect(record.field_result)
        if detection is None:
            return None
        return Signal(
            classifier=self.name,
            verdict=Verdict.BLOCKED_BLOCKPAGE,
            confidence=self.confidence,
            evidence=(
                f"{detection.vendor} block flow: "
                f"{len(detection.matched)} pattern(s) matched"
            ),
            detection=detection,
        )
