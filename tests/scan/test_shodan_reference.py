"""The posting-list ShodanIndex against a linear-scan reference.

The reference below is the index's original query path: test every
record against every token, in record order, and stop at the cap. On
random corpora and queries the index must return the same hits for
``search`` and ``search_expanded`` and log the same entries.

Exercised via Hypothesis when it is installed, and over a fixed seeded
sample otherwise, so tier-1 checks the same property either way.
"""

from __future__ import annotations

import random
import sys
import threading
from typing import List

from repro.net.ip import Ipv4Address
from repro.scan.banner import BannerRecord
from repro.scan.shodan import ShodanIndex, _tokenize
from repro.world.clock import SimTime

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without the dep
    HAVE_HYPOTHESIS = False

WORDS = (
    "netsweeper", "WebAdmin", "McAfee", "web", "Gateway", "blockpage.cgi",
    "HTTP/1.1", "403", "Proxy", "straße", "ΟΔΟΣ", "İzmir",
)
STATUS_LINES = ("HTTP/1.1 200 OK", "HTTP/1.1 403 Forbidden", "")
HOSTNAMES = ("", "Shop.Example.AE", "mail.example.com", "WEBADMIN.example.ye")
COUNTRY_CODES = ("", "ae", "AE", "Ye", "sa", "us")
PORTS = (80, 443, 8080, 15871)
CASINGS = (str, str.lower, str.upper, str.title, str.swapcase)
COUNTRY_PREFIXES = ("country:", "Country:", "COUNTRY:")
PORT_PREFIXES = ("port:", "Port:", "PORT:")
PORT_VALUES = ("80", "443", "08080", "15871", "9", "", "²", "٨٠", "8o")
ABSENT = "zzqx"


def _reference_matches(record: BannerRecord, token: str) -> bool:
    lowered = token.lower()
    if lowered.startswith("country:"):
        return record.country_code.lower() == lowered[len("country:"):]
    if lowered.startswith("port:"):
        value = lowered[len("port:"):]
        return value.isdecimal() and record.port == int(value)
    return record.matches_keyword(token)


class ReferenceIndex:
    """Linear-scan search with the index's cap and log rules."""

    def __init__(self, records, cap: int) -> None:
        self.records = records
        self.cap = cap
        self.log: List[tuple] = []

    def _execute(self, query: str) -> List[BannerRecord]:
        tokens = _tokenize(query)
        hits: List[BannerRecord] = []
        for record in self.records:
            if all(_reference_matches(record, token) for token in tokens):
                hits.append(record)
                if len(hits) >= self.cap:
                    break
        return hits

    def search(self, query: str) -> List[BannerRecord]:
        hits = self._execute(query)
        self.log.append((query, len(hits)))
        return hits

    def search_expanded(self, keyword: str, codes) -> List[BannerRecord]:
        seen = set()
        merged: List[BannerRecord] = []
        for query in [keyword] + [f"{keyword} country:{c}" for c in codes]:
            for record in self.search(query):
                if (record.ip.value, record.port) not in seen:
                    seen.add((record.ip.value, record.port))
                    merged.append(record)
        return merged


class RandomChooser:
    """Draws each choice of a generated case from a seeded RNG; the
    Hypothesis run draws the same choices from ``st.data()``."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def pick(self, options):
        return self._rng.choice(options)

    def count(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)


def _words(choose, low: int, high: int) -> str:
    return " ".join(
        choose.pick(CASINGS)(choose.pick(WORDS))
        for _ in range(choose.count(low, high))
    )


def _record(choose) -> BannerRecord:
    return BannerRecord(
        # A narrow address range, so (ip, port) pairs repeat and the
        # expansion's de-duplication is exercised.
        ip=Ipv4Address(0x14000000 + choose.count(0, 5)),
        port=choose.pick(PORTS),
        status_line=choose.pick(STATUS_LINES),
        headers_text=_words(choose, 0, 3),
        html_title=_words(choose, 0, 3),
        hostname=choose.pick(HOSTNAMES),
        observed_at=SimTime(0),
        country_code=choose.pick(COUNTRY_CODES),
    )


def _token(choose) -> str:
    kind = choose.pick(("word", "phrase", "open", "country", "port", "absent"))
    if kind == "word":
        return _words(choose, 1, 1)
    if kind == "phrase":
        return f'"{_words(choose, 1, 3)}"'
    if kind == "open":
        return f'"{_words(choose, 1, 2)}'
    if kind == "country":
        return choose.pick(COUNTRY_PREFIXES) + choose.pick(
            COUNTRY_CODES + ("zz",)
        )
    if kind == "port":
        return choose.pick(PORT_PREFIXES) + choose.pick(PORT_VALUES)
    return choose.pick(CASINGS)(ABSENT)


def _query(choose) -> str:
    return choose.pick((" ", "  ")).join(
        _token(choose) for _ in range(choose.count(0, 3))
    )


def check_against_reference(choose) -> None:
    records = [_record(choose) for _ in range(choose.count(0, 12))]
    cap = choose.count(1, len(records) + 2)
    geolocate = None
    if choose.pick((False, True)):
        geolocate = {
            Ipv4Address(value): choose.pick(("ae", "SA", None))
            for value in range(0x14000000, 0x14000006)
        }.get
    index = ShodanIndex(records, result_cap=cap, geolocate=geolocate)
    reference = ReferenceIndex(index.records, cap)

    queries = [_query(choose) for _ in range(choose.count(1, 5))]
    # The same query issued twice is answered and logged twice.
    queries.append(choose.pick(queries))
    for query in queries:
        assert [id(r) for r in index.search(query)] == [
            id(r) for r in reference.search(query)
        ], query
    keyword = _token(choose)
    codes = [
        choose.pick(COUNTRY_CODES + ("zz",)) for _ in range(choose.count(0, 4))
    ]
    assert [id(r) for r in index.search_expanded(keyword, codes)] == [
        id(r) for r in reference.search_expanded(keyword, codes)
    ]
    assert index.log.entries == reference.log


if HAVE_HYPOTHESIS:

    class DataChooser:
        def __init__(self, data) -> None:
            self._data = data

        def pick(self, options):
            return self._data.draw(st.sampled_from(options))

        def count(self, low: int, high: int) -> int:
            return self._data.draw(st.integers(min_value=low, max_value=high))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_index_matches_linear_scan(data):
        check_against_reference(DataChooser(data))

else:  # pragma: no cover - fallback for environments without hypothesis

    def test_index_matches_linear_scan():
        rng = random.Random(0x5D0DA)
        for _ in range(300):
            check_against_reference(RandomChooser(rng))


def test_concurrent_searches_match_linear_scan():
    """Threads racing to build the same postings get the reference's
    hits: a duplicated or overwritten posting only repeats work."""
    choose = RandomChooser(random.Random(0x7EAD))
    records = [_record(choose) for _ in range(200)]
    queries = sorted({_query(choose) for _ in range(80)})
    reference = ReferenceIndex(records, 50)
    expected = {q: [id(r) for r in reference.search(q)] for q in queries}
    index = ShodanIndex(records, result_cap=50)
    mismatches: List[str] = []

    def worker(seed: int) -> None:
        order = list(queries)
        random.Random(seed).shuffle(order)
        for query in order:
            if [id(r) for r in index.search(query)] != expected[query]:
                mismatches.append(query)

    threads = [
        threading.Thread(target=worker, args=(seed,)) for seed in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    # Every search by every thread completed and was logged.
    assert index.log.query_count == len(threads) * len(queries)
