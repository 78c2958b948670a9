"""A Shodan-like banner search engine.

Models the properties of the real service that shaped the paper's
methodology (§3.1):

- keyword queries match as substrings over banner text and hostname;
- results per query are **capped**, which is exactly why the authors
  combined each keyword "with each of the two letter country-code
  top-level domains, to maximize the set of results";
- a ``country:xx`` token filters on the scanner's own (GeoIP-derived)
  country tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.ip import Ipv4Address
from repro.scan.banner import BannerRecord

DEFAULT_RESULT_CAP = 100

_COUNTRY = "country:"
_PORT = "port:"

#: A token's matches: ascending record positions, and the same as a set.
_Posting = Tuple[List[int], Set[int]]


@dataclass
class ShodanQueryLog:
    """Bookkeeping: queries issued and how many results each returned."""

    entries: List[Tuple[str, int]] = field(default_factory=list)

    def record(self, query: str, count: int) -> None:
        self.entries.append((query, count))

    @property
    def query_count(self) -> int:
        return len(self.entries)


class ShodanIndex:
    """Searchable index over banner records.

    Each query is answered from per-token posting lists: the ascending
    positions of the records a token matches, plus the same positions
    as a set for membership tests. Every matching rule depends only on
    the lowered token, so postings are memoized under it. ``country:``
    postings come from one grouping pass at construction; a keyword or
    ``port:`` posting is built in one pass the first time a query uses
    it. Records are treated as immutable once indexed.
    """

    def __init__(
        self,
        records: Iterable[BannerRecord],
        *,
        result_cap: int = DEFAULT_RESULT_CAP,
        geolocate: Optional[Callable[[Ipv4Address], Optional[str]]] = None,
    ) -> None:
        """``geolocate`` overrides each record's country tag (e.g. with a
        MaxMind-style database including its errors); records the
        function cannot place keep their original tag.
        """
        self._records: List[BannerRecord] = []
        by_country: Dict[str, List[int]] = {}
        for position, record in enumerate(records):
            if geolocate is not None:
                code = geolocate(record.ip)
                if code is not None:
                    record.country_code = code
            self._records.append(record)
            by_country.setdefault(
                _COUNTRY + record.country_code.lower(), []
            ).append(position)
        if result_cap <= 0:
            raise ValueError("result_cap must be positive")
        self.result_cap = result_cap
        self.log = ShodanQueryLog()
        # Concurrent searches may build the same posting twice; both
        # builds are equal, so the race only duplicates work.
        self._postings: Dict[str, _Posting] = {
            token: (positions, set(positions))
            for token, positions in by_country.items()
        }

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[BannerRecord]:
        return list(self._records)

    def search(
        self, query: str, *, log: Optional[ShodanQueryLog] = None
    ) -> List[BannerRecord]:
        """Run one query; results are capped at ``result_cap``.

        Tokens: ``country:xx`` filters by country tag; ``port:N`` by
        port; every other token must appear as a substring of the
        banner. Quoted phrases ("mcafee web gateway") match as one
        token.

        ``log`` overrides the index-wide query log — parallel callers
        record into private logs and merge them back in task order so
        the combined log is independent of scheduling.
        """
        target_log = log if log is not None else self.log
        hits = self._execute(query)
        target_log.record(query, len(hits))
        return hits

    def _execute(self, query: str) -> List[BannerRecord]:
        """Walk the shortest posting in record order, keep the positions
        every other token's posting contains, stop at the cap."""
        tokens = _tokenize(query)
        if not tokens:
            return self._records[: self.result_cap]
        shortest, *others = sorted(
            (self._posting(token) for token in tokens),
            key=lambda posting: len(posting[0]),
        )
        hits: List[BannerRecord] = []
        for position in shortest[0]:
            if all(position in members for _, members in others):
                hits.append(self._records[position])
                if len(hits) >= self.result_cap:
                    break
        return hits

    def _posting(self, token: str) -> _Posting:
        lowered = token.lower()
        posting = self._postings.get(lowered)
        if posting is not None:
            return posting
        if lowered.startswith(_COUNTRY):
            # Every country present got its posting at construction.
            positions: List[int] = []
        elif lowered.startswith(_PORT):
            value = lowered[len(_PORT):]
            port = int(value) if value.isdecimal() else None
            positions = [
                position
                for position, record in enumerate(self._records)
                if record.port == port
            ]
        else:
            positions = [
                position
                for position, record in enumerate(self._records)
                if record.matches_keyword(token)
            ]
        posting = self._postings[lowered] = (positions, set(positions))
        return posting

    def search_expanded(
        self,
        keyword: str,
        country_codes: Sequence[str],
        *,
        log: Optional[ShodanQueryLog] = None,
    ) -> List[BannerRecord]:
        """The paper's keyword x ccTLD expansion (§3.1).

        Runs the bare keyword plus one country-scoped query per code and
        unions the results, defeating the per-query cap.
        """
        seen: Set[Tuple[int, int]] = set()
        merged: List[BannerRecord] = []
        for query in [keyword] + [
            f"{keyword} country:{code}" for code in country_codes
        ]:
            for record in self.search(query, log=log):
                key = (record.ip.value, record.port)
                if key not in seen:
                    seen.add(key)
                    merged.append(record)
        return merged


def _tokenize(query: str) -> List[str]:
    tokens: List[str] = []
    rest = query.strip()
    while rest:
        if rest.startswith('"'):
            end = rest.find('"', 1)
            if end == -1:
                tokens.append(rest[1:])
                break
            tokens.append(rest[1:end])
            rest = rest[end + 1:].strip()
        else:
            piece, _, rest = rest.partition(" ")
            tokens.append(piece)
            rest = rest.strip()
    return [t for t in tokens if t]
