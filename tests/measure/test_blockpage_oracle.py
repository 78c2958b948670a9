"""The literal-gated block-page matcher against its reference loop.

``BlockPagePatternMatcher.detect`` runs a pattern's regex on a text only
when the pattern's required literal occurs in the lower-cased text.
:func:`reference_detect` is the loop it replaced: every pattern, every
text of every hop. The gate must never change a result, so each
property here asserts the two return the same ``Detection`` (or
``None``) for:

- corpus literals in random case, embedded in ASCII and Arabic text,
  with and without the four characters that fold to ASCII;
- multi-hop redirect chains;
- synthetic patterns with groups, alternation, quantifiers, classes,
  ``\\s``/``\\S`` escapes, ``re.VERBOSE`` and no ``re.IGNORECASE``.

The last test recomputes the fold characters by brute force over every
code point on the running Python.
"""

from __future__ import annotations

import re
import sys

from hypothesis import given, settings, strategies as st

from repro.measure.classifiers.blockpage import (
    FOLD_GUARD,
    BlockPagePatternMatcher,
    required_literal,
)
from repro.measure.verdict import Detection
from repro.net.fetch import FetchOutcome, FetchResult, Hop
from repro.net.http import Headers, HttpRequest, HttpResponse
from repro.net.url import Url
from repro.products.registry import CompiledBlockPattern, default_registry


def reference_detect(patterns, result):
    """The matcher's detect loop before the literal gate."""
    votes = {}
    for hop in result.hops:
        response = hop.response
        headers_text = f"{response.status_line()}\n{response.headers.as_text()}"
        body_text = response.body
        for pattern in patterns:
            if pattern.scope == "headers":
                haystacks = [headers_text]
            elif pattern.scope == "body":
                haystacks = [body_text]
            else:
                haystacks = [headers_text, body_text]
            if any(pattern.pattern.search(h) for h in haystacks):
                votes.setdefault(pattern.vendor, []).append(
                    pattern.pattern.pattern
                )
        request_url = str(hop.request.url)
        for pattern in patterns:
            if (
                pattern.scope == "any"
                and not pattern.branded
                and pattern.pattern.search(request_url)
            ):
                votes.setdefault(pattern.vendor, []).append(
                    pattern.pattern.pattern
                )
    if not votes:
        return None
    best_vendor = min(votes, key=lambda v: (-len(set(votes[v])), v))
    return Detection(best_vendor, sorted(set(votes[best_vendor])))


REGISTRY = default_registry()
CORPUS = REGISTRY.block_page_patterns(REGISTRY.names())

#: Text the corpus patterns look for, plus near misses.
NEEDLES = (
    "www.cfauth.com", "cfru=", "blue coat", "bluecoat", "proxysg",
    "content categorization", "mcafee web gateway",
    "<h1>  URL Blocked\n</h1>", "<h1>URL Blocked", "webadmin/deny",
    "netsweeper", "Web Page Blocked", "blockpage.cgi", "ws-session",
    "websense", "fortiguard", "fortinet", "internet usage policy",
    "cfauth", "proxy sg", "web-sense", "blockpage-cgi",
)
#: U+0130 İ, U+0131 ı, U+017F ſ and U+212A K, by the ASCII they fold to.
FOLDS = {"i": "İı", "s": "ſ", "k": "K"}
FILLERS = ("", " ", "<p>", "news of the day ", "\r\n", "İ", "ı", "ſ", "K")

# Examples are drawn from one Hypothesis-controlled ``random.Random``:
# building fetches and patterns from nested strategies spent most of the
# run generating data.


def disguise(rng, word):
    """``word`` in random case, with some letters swapped for folds."""
    out = []
    for ch in word:
        roll = rng.randrange(6)
        if roll == 0 and ch.lower() in FOLDS:
            out.append(rng.choice(FOLDS[ch.lower()]))
        elif roll <= 2:
            out.append(ch.swapcase())
        else:
            out.append(ch)
    return "".join(out)


def filler(rng):
    roll = rng.randrange(3)
    if roll == 0:
        return rng.choice(FILLERS)
    if roll == 1:  # Arabic-script local content
        low, high = 0x0600, 0x06FF
    else:
        low, high = 0x20, 0x2FFF
    return "".join(chr(rng.randint(low, high)) for _ in range(rng.randrange(12)))


def random_text(rng, words):
    pieces = []
    for _ in range(rng.randrange(7)):
        roll = rng.randrange(3)
        if roll == 0:
            pieces.append(filler(rng))
        elif roll == 1:
            pieces.append(disguise(rng, rng.choice(words)))
        else:
            pieces.append(rng.choice(words))
    return "".join(pieces)


def hop_for(path_text, headers, body, status=200):
    url = Url("http", "site.example", 80, "/" + path_text)
    response = HttpResponse(status, Headers(headers), body)
    return Hop(HttpRequest.get(url), response)


def random_fetch(rng, words, max_hops=1):
    chain = [
        hop_for(
            random_text(rng, words),
            [
                (rng.choice(["Location", "Server", "X-Note"]), random_text(rng, words))
                for _ in range(rng.randrange(4))
            ],
            random_text(rng, words),
            rng.choice([200, 302, 403]),
        )
        for _ in range(rng.randint(1, max_hops))
    ]
    return FetchResult(chain[0].request.url, FetchOutcome.OK, chain)


def assert_same(patterns, result):
    """Same detection from the corpus, and from each pattern alone.

    A detection names only the winning vendor's patterns; one pattern at
    a time also checks every losing vote.
    """
    for selection in [patterns] + [[p] for p in patterns]:
        expected = reference_detect(selection, result)
        assert BlockPagePatternMatcher(selection).detect(result) == expected


RANDOMS = st.randoms(use_true_random=False)


class DescribeCorpus:
    @settings(max_examples=400, deadline=None)
    @given(rng=RANDOMS)
    def test_single_hop_matches_reference(self, rng):
        assert_same(CORPUS, random_fetch(rng, NEEDLES))

    @settings(max_examples=200, deadline=None)
    @given(rng=RANDOMS)
    def test_redirect_chain_matches_reference(self, rng):
        assert_same(CORPUS, random_fetch(rng, NEEDLES, max_hops=4))

    @settings(max_examples=100, deadline=None)
    @given(rng=RANDOMS)
    def test_structural_subset_matches_reference(self, rng):
        structural = [p for p in CORPUS if not p.branded]
        assert_same(structural, random_fetch(rng, NEEDLES, max_hops=3))

    def test_fold_character_is_found(self):
        # "ſ" matches "s" under IGNORECASE, but "webſenſe".lower() does
        # not contain "websense": only the fold guard finds this hit.
        result = FetchResult(
            Url.for_host("site.example"),
            FetchOutcome.OK,
            [hop_for("", [], "blocked by webſenſe")],
        )
        detection = BlockPagePatternMatcher(CORPUS).detect(result)
        assert detection == Detection("Websense", ["websense"])
        assert detection == reference_detect(CORPUS, result)


#: Words the synthetic patterns and texts are built from.
WORDS = ("abc", "def", "kiss", "xyz", "Sık", "café")
ESCAPES = (r"\s", r"\S", r"\d", ".", "[a-c]", "[^x]", "[kK]", "[s]", "[ıi]")
FLAGS = (
    re.IGNORECASE,
    re.IGNORECASE,
    0,
    re.IGNORECASE | re.VERBOSE,
    re.VERBOSE,
    re.IGNORECASE | re.ASCII,
)


def random_atom(rng, depth):
    roll = rng.randrange(9 if depth < 2 else 4)
    if roll <= 1:
        return re.escape(disguise(rng, rng.choice(WORDS)))
    if roll == 2:
        return re.escape(rng.choice(WORDS))
    if roll == 3:
        return rng.choice(ESCAPES)
    inner = random_regex(rng, depth + 1)
    if roll <= 5:
        return f"({inner})"
    if roll == 6:
        return f"(?:{inner})"
    return f"({inner}|{random_regex(rng, depth + 1)})"


def random_regex(rng, depth=0):
    parts = []
    for _ in range(rng.randint(1, 4)):
        atom = random_atom(rng, depth)
        # Unbounded repeats go on literal words only: "\S*\S*x" or
        # "(\S*)*" backtrack for exponential time on a text with no match.
        quantifiers = ["", "", "", "?", "??", "{0,2}", "{1,3}"]
        if atom[0] not in "(\\[.":
            quantifiers += ["*", "+"]
        quantifier = rng.choice(quantifiers)
        if quantifier and not atom.startswith("("):
            atom = f"(?:{atom})"
        parts.append(atom + quantifier)
    return "".join(parts)


def random_pattern(rng):
    source = random_regex(rng)
    if rng.random() < 0.3:
        source = f"{source}|{random_regex(rng)}"
    return CompiledBlockPattern(
        rng.choice(["Alpha", "Beta", "Gamma"]),
        re.compile(source, rng.choice(FLAGS)),
        rng.choice(["headers", "body", "any"]),
        rng.random() < 0.5,
    )


class DescribeSyntheticPatterns:
    @settings(max_examples=400, deadline=None)
    @given(rng=RANDOMS)
    def test_matches_reference(self, rng):
        patterns = [random_pattern(rng) for _ in range(rng.randint(1, 5))]
        assert_same(patterns, random_fetch(rng, WORDS, max_hops=3))


class DescribeRequiredLiteral:
    def test_corpus_literals(self):
        literals = {p.pattern.pattern: required_literal(p.pattern) for p in CORPUS}
        assert literals[r"www\.cfauth\.com"] == "www.cfauth.com"
        assert literals["blue ?coat"] == "blue"
        assert literals[r"<h1>\s*URL Blocked\s*</h1>"] == "url blocked"
        assert literals["Web Page Blocked"] == "web page blocked"

    def test_grouped_or_quantified_literal_never_counts(self):
        assert required_literal(re.compile("(abc)?def")) == "def"
        assert required_literal(re.compile("abcd?e")) == "abc"
        assert required_literal(re.compile("(abcdef)gh")) == "gh"
        assert required_literal(re.compile("[abcdef]+gh")) == "gh"
        assert required_literal(re.compile(r"\w+")) is None

    def test_no_literal(self):
        assert required_literal(re.compile("abc|def")) is None
        assert required_literal(re.compile("abc", re.VERBOSE)) is None
        assert required_literal(re.compile(b"abc")) is None
        assert required_literal(re.compile("café", re.IGNORECASE)) is None

    def test_prefix_shared_by_every_branch_counts(self):
        # The parser reads "xab|xac" as "xa[bc]".
        assert required_literal(re.compile("xab|xac")) == "xa"

    def test_derived_once_per_compiled_pattern(self):
        required_literal.cache_clear()
        for _ in range(3):
            BlockPagePatternMatcher.for_products()
        info = required_literal.cache_info()
        assert info.misses == len(REGISTRY.block_page_patterns())
        assert info.hits == 2 * info.misses


def test_fold_guard_is_every_non_ascii_fold_to_ascii():
    """Brute force: which non-ASCII characters meet ASCII case-insensitively?

    A character belongs if ``re.IGNORECASE`` matches it against an ASCII
    literal, or if its ``lower()`` contains ASCII.
    """
    chars = "".join(map(chr, range(0x80, sys.maxunicode + 1)))
    folds = set()
    for code in range(0x80):
        folds.update(re.findall(re.escape(chr(code)), chars, re.IGNORECASE))
    ascii_char = re.compile(r"[\x00-\x7f]")
    folds.update(
        ch for ch in chars if ch.lower() != ch and ascii_char.search(ch.lower())
    )
    assert folds == set(FOLD_GUARD)
