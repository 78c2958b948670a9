"""A simulated search-engine oracle over the world's HTTP content.

FilteredWeb drives discovery with a real search engine (Bing); here the
stand-in is an inverted index built over every registered website's
pages — the view an *uncensored* search crawler would have of the web.
Queries return ranked, paginated results under an optional total-query
budget, mirroring the API quota a real engine imposes.

Determinism: the index is built over ``sorted(world.websites)`` and
postings are ranked by ``(-term_frequency, url)``, so the same world
always yields byte-identical result pages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["QueryBudgetExhausted", "SearchIndex", "SearchPage", "tokenize"]

_TOKEN = re.compile(r"[a-z]{4,}")
_TAG = re.compile(r"<[^>]+>")

#: Boilerplate the tokenizer drops: markup vocabulary and page chrome
#: that would otherwise dominate every posting list.
STOPWORDS = frozenset(
    {
        "article", "charset", "content", "coverage", "directory", "href",
        "html", "http", "https", "nav", "nginx", "notes", "related",
        "sites", "tags", "text", "title", "utf",
    }
)


def tokenize(text: str) -> List[str]:
    """Lowercased alphabetic terms (>= 4 chars) with markup stripped."""
    plain = _TAG.sub(" ", text).lower()
    return [t for t in _TOKEN.findall(plain) if t not in STOPWORDS]


class QueryBudgetExhausted(RuntimeError):
    """The index's total query quota has been spent."""


@dataclass(frozen=True)
class SearchPage:
    """One page of ranked results for a query."""

    term: str
    page: int
    per_page: int
    total: int
    results: Tuple[str, ...]  # URL strings, ranked


@dataclass
class SearchIndex:
    """Inverted index: term -> ranked postings of page URLs."""

    postings: Dict[str, List[str]] = field(default_factory=dict)
    page_count: int = 0
    #: Total queries allowed before :class:`QueryBudgetExhausted`;
    #: ``None`` means unmetered.
    query_budget: Optional[int] = None
    queries_issued: int = 0

    @classmethod
    def build(
        cls, world, *, query_budget: Optional[int] = None
    ) -> "SearchIndex":
        """Index every page of every registered website."""
        frequencies: Dict[str, List[Tuple[int, str]]] = {}
        page_count = 0
        for domain in sorted(world.websites):
            site = world.websites[domain]
            for path in sorted(site.pages):
                url = f"http://{domain}{path}"
                counts: Dict[str, int] = {}
                for term in tokenize(site.pages[path].body):
                    counts[term] = counts.get(term, 0) + 1
                for term, count in counts.items():
                    frequencies.setdefault(term, []).append((count, url))
                page_count += 1
        postings = {
            term: [url for count, url in sorted(entries, key=_rank)]
            for term, entries in frequencies.items()
        }
        return cls(
            postings=postings, page_count=page_count, query_budget=query_budget
        )

    def query(
        self, term: str, *, page: int = 1, per_page: int = 20
    ) -> SearchPage:
        """Ranked results for ``term``; raises once the budget is spent."""
        if page < 1 or per_page < 1:
            raise ValueError("page and per_page must be >= 1")
        if (
            self.query_budget is not None
            and self.queries_issued >= self.query_budget
        ):
            raise QueryBudgetExhausted(
                f"query budget of {self.query_budget} spent"
            )
        self.queries_issued += 1
        ranked = self.postings.get(term.lower(), [])
        start = (page - 1) * per_page
        return SearchPage(
            term=term.lower(),
            page=page,
            per_page=per_page,
            total=len(ranked),
            results=tuple(ranked[start:start + per_page]),
        )


def _rank(entry: Tuple[int, str]) -> Tuple[int, str]:
    count, url = entry
    return (-count, url)
