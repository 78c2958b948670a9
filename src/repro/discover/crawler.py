"""Iterative search-based discovery of blocked URLs.

The engine reproduces the FilteredWeb loop against the simulated world:

1. probe a frontier of candidate URLs from a *censored* vantage via
   :class:`~repro.measure.client.MeasurementClient` (so block pages —
   not origin content — are what the censored side sees);
2. for each URL the fused verdict marks blocked, mine the *lab* (i.e.
   uncensored) copy of the page for outbound links and high-frequency
   keywords;
3. query the simulated search index with the new keywords and enqueue
   ranked results plus extracted links as the next frontier;
4. stop when a round admits zero new blocked URLs (convergence) or the
   round budget runs out.

Determinism: probes fan out through ``repro.exec`` in submission order,
extraction walks results in batch order, and every queue is
insertion-ordered with set-based dedup — so the discovered list and the
convergence trace are byte-identical at any worker count.

The PR-3 invariant holds by construction: a quarantined probe comes
back INSUFFICIENT with zero confidence, and the admission gate requires
``blocked and not insufficient`` — faults can stall discovery, never
pad it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.discover.index import (
    QueryBudgetExhausted,
    SearchIndex,
    tokenize,
)
from repro.exec.executor import Executor
from repro.exec.resilience import ResilientRunner
from repro.measure.classifiers.fusion import VerdictEngine
from repro.measure.client import MeasurementClient, UrlTest
from repro.measure.testlists import build_global_list, build_local_list
from repro.net.errors import UrlError
from repro.net.url import Url
from repro.world.entities import WebSite
from repro.world.world import World

__all__ = [
    "Candidate",
    "CoverageReport",
    "DiscoveryConfig",
    "DiscoveryEngine",
    "DiscoveryResult",
    "RoundTrace",
    "static_baseline",
]

_HREF = re.compile(r'href="([^"]+)"')

#: A frontier entry: the URL text, its source, and the text parsed once.
_Entry = Tuple[str, str, Url]


@dataclass(frozen=True)
class DiscoveryConfig:
    """Budgets and termination knobs for one discovery run."""

    max_rounds: int = 20
    #: Keywords mined per blocked page (top terms by frequency).
    keywords_per_page: int = 6
    #: Search queries issued per round.
    queries_per_round: int = 12
    #: Ranked results consumed per query (first result page).
    results_per_query: int = 20
    #: Probes allowed per registered domain over the whole run.
    per_domain_budget: int = 2
    #: Probes per round (frontier overflow carries to the next round).
    max_probes_per_round: int = 160

    def __post_init__(self) -> None:
        for name in (
            "max_rounds",
            "keywords_per_page",
            "queries_per_round",
            "results_per_query",
            "per_domain_budget",
            "max_probes_per_round",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def identity(self) -> Dict[str, int]:
        return {
            "max_rounds": self.max_rounds,
            "keywords_per_page": self.keywords_per_page,
            "queries_per_round": self.queries_per_round,
            "results_per_query": self.results_per_query,
            "per_domain_budget": self.per_domain_budget,
            "max_probes_per_round": self.max_probes_per_round,
        }


@dataclass(frozen=True)
class Candidate:
    """One probed URL and what the verdict engine said about it."""

    url: str
    source: str  # "seed" | "link" | "search"
    round_index: int
    verdict: str
    blocked: bool
    insufficient: bool
    vendor: Optional[str]
    confidence: float


@dataclass(frozen=True)
class RoundTrace:
    """Per-round convergence accounting."""

    index: int
    probed: int
    new_blocked: int
    insufficient: int
    queries_issued: int
    enqueued: int

    def line(self) -> str:
        return (
            f"round={self.index} probed={self.probed} "
            f"new_blocked={self.new_blocked} "
            f"insufficient={self.insufficient} "
            f"queries={self.queries_issued} enqueued={self.enqueued}"
        )


@dataclass
class DiscoveryResult:
    """Everything one discovery run produced."""

    isp_name: str
    seed_urls: List[str]
    rounds: List[RoundTrace]
    candidates: List[Candidate]
    blocked_urls: List[str]  # sorted, deduped, admitted URLs
    converged: bool
    config: DiscoveryConfig = field(default_factory=DiscoveryConfig)

    @property
    def blocked_hosts(self) -> List[str]:
        return sorted({Url.parse(u).host for u in self.blocked_urls})

    @property
    def insufficient_count(self) -> int:
        return sum(1 for c in self.candidates if c.insufficient)

    def discovered_list_text(self) -> str:
        """The discovered blocked-URL list, byte-stable."""
        return "".join(f"{u}\n" for u in self.blocked_urls)

    def trace_text(self) -> str:
        """The convergence trace, byte-stable."""
        return "".join(f"{r.line()}\n" for r in self.rounds)


@dataclass(frozen=True)
class CoverageReport:
    """Coverage gained over the static global+local lists."""

    static_blocked: int
    discovered_blocked: int
    overlap: int
    new_urls: Tuple[str, ...]

    @property
    def gain_ratio(self) -> float:
        if not self.static_blocked:
            return float(self.discovered_blocked)
        return self.discovered_blocked / self.static_blocked

    @classmethod
    def evaluate(
        cls, result: DiscoveryResult, baseline_urls: Sequence[str]
    ) -> "CoverageReport":
        baseline = set(baseline_urls)
        discovered = set(result.blocked_urls)
        return cls(
            static_blocked=len(baseline),
            discovered_blocked=len(discovered),
            overlap=len(baseline & discovered),
            new_urls=tuple(sorted(discovered - baseline)),
        )

    def describe(self) -> str:
        return (
            f"static lists: {self.static_blocked} blocked; "
            f"discovered: {self.discovered_blocked} "
            f"({len(self.new_urls)} new, {self.gain_ratio:.2f}x)"
        )


def _canonical_url(url: Url) -> str:
    path = WebSite.canonical_path(url.path or "/")
    return f"http://{url.host}{path}"


def _parse(urls: Dict[str, Optional[Url]], text: str) -> Optional[Url]:
    """``Url.parse(text)``, or None if it does not parse.

    ``urls`` memoizes every text one crawl parses, so a link or search
    result that recurs across pages and queries is parsed once.
    """
    try:
        return urls[text]
    except KeyError:
        pass
    try:
        url: Optional[Url] = Url.parse(text)
    except (UrlError, ValueError):
        url = None
    urls[text] = url
    return url


def _entry(urls: Dict[str, Optional[Url]], text: str, source: str) -> _Entry:
    """A frontier entry; raises :class:`UrlError` if ``text`` does not parse."""
    url = _parse(urls, text)
    if url is None:
        url = Url.parse(text)  # raises the parse error
    return text, source, url


def _extract_links(
    base: Url, body: str, urls: Dict[str, Optional[Url]]
) -> List[str]:
    """Canonical absolute URLs referenced by ``body``, in page order.

    ``base`` is the probed page's URL; absolute hrefs are parsed through
    the crawl's ``urls`` memo (see :func:`_parse`).
    """
    links: List[str] = []
    for href in _HREF.findall(body):
        if href.startswith("http://") or href.startswith("https://"):
            target = _parse(urls, href)
            if target is None:
                continue
        elif href.startswith("/"):
            try:
                target = base.with_path(WebSite.canonical_path(href))
            except (UrlError, ValueError):
                continue
        else:
            continue
        links.append(_canonical_url(target))
    return links


def _extract_keywords(body: str, limit: int) -> List[str]:
    counts: Dict[str, int] = {}
    for term in tokenize(body):
        counts[term] = counts.get(term, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [term for term, _count in ranked[:limit]]


class DiscoveryEngine:
    """Runs the discovery loop for one censored vantage."""

    def __init__(
        self,
        world: World,
        isp_name: str,
        *,
        config: Optional[DiscoveryConfig] = None,
        engine: Optional[VerdictEngine] = None,
        index: Optional[SearchIndex] = None,
        executor: Optional[Executor] = None,
        link_latency: float = 0.0,
        resilience: Optional[ResilientRunner] = None,
    ) -> None:
        self._world = world
        self._isp_name = isp_name
        self.config = config or DiscoveryConfig()
        self.index = index if index is not None else SearchIndex.build(world)
        self._client = MeasurementClient(
            world.vantage(isp_name),
            world.lab_vantage(),
            engine=engine,
            executor=executor,
            link_latency=link_latency,
            resilience=resilience,
            stage="discover",
            endpoint=isp_name,
        )

    # ------------------------------------------------------------- run
    def run(self, seed_urls: Sequence[str]) -> DiscoveryResult:
        """Discover outward from ``seed_urls`` until convergence."""
        config = self.config
        seeds = _dedupe(_canonical_url(Url.parse(u)) for u in seed_urls)
        if not seeds:
            raise ValueError("discovery needs at least one seed URL")

        urls: Dict[str, Optional[Url]] = {}
        tested: Set[str] = set()
        domain_spend: Dict[str, int] = {}
        keywords_seen: Set[str] = set()
        keyword_queue: List[str] = []
        blocked: Set[str] = set()
        candidates: List[Candidate] = []
        rounds: List[RoundTrace] = []
        frontier: List[_Entry] = [_entry(urls, u, "seed") for u in seeds]
        converged = False

        for round_index in range(1, config.max_rounds + 1):
            batch = self._select_batch(frontier, tested, domain_spend)
            queries_left = config.queries_per_round
            queries_issued = 0
            next_frontier: List[_Entry] = []
            new_blocked = 0
            insufficient = 0

            run = self._client.run_list([url for _text, _source, url in batch])
            for (url_text, source, url), test in zip(batch, run.tests):
                candidates.append(_candidate(url_text, source, round_index, test))
                if test.insufficient:
                    insufficient += 1
                    continue
                # The PR-3 admission gate: only a positive, sufficient
                # verdict ever lands on the discovered list.
                if not test.blocked or url_text in blocked:
                    continue
                blocked.add(url_text)
                new_blocked += 1
                lab_page = (
                    test.lab_result.response if test.lab_result else None
                )
                if lab_page is None:
                    continue
                for link in _extract_links(url, lab_page.body, urls):
                    next_frontier.append(_entry(urls, link, "link"))
                for term in _extract_keywords(
                    lab_page.body, config.keywords_per_page
                ):
                    if term not in keywords_seen:
                        keywords_seen.add(term)
                        keyword_queue.append(term)

            while keyword_queue and queries_left > 0:
                term = keyword_queue.pop(0)
                queries_left -= 1
                try:
                    page = self.index.query(
                        term, per_page=config.results_per_query
                    )
                except QueryBudgetExhausted:
                    keyword_queue.insert(0, term)
                    break
                queries_issued += 1
                for result_url in page.results:
                    next_frontier.append(_entry(urls, result_url, "search"))

            enqueued = len(next_frontier)
            rounds.append(
                RoundTrace(
                    index=round_index,
                    probed=len(batch),
                    new_blocked=new_blocked,
                    insufficient=insufficient,
                    queries_issued=queries_issued,
                    enqueued=enqueued,
                )
            )
            self._world.advance_days(1)
            if batch and new_blocked == 0:
                converged = True
                break
            # Unprobed frontier overflow carries forward ahead of the
            # newly discovered candidates.
            leftovers = [
                entry
                for entry in frontier
                if entry[0] not in tested
                and not _spent(entry[2], domain_spend, config)
            ]
            frontier = leftovers + next_frontier
            if not frontier and not keyword_queue:
                converged = True
                break

        return DiscoveryResult(
            isp_name=self._isp_name,
            seed_urls=list(seeds),
            rounds=rounds,
            candidates=candidates,
            blocked_urls=sorted(blocked),
            converged=converged,
            config=config,
        )

    # --------------------------------------------------------- helpers
    def _select_batch(
        self,
        frontier: Sequence[_Entry],
        tested: Set[str],
        domain_spend: Dict[str, int],
    ) -> List[_Entry]:
        """Dedup + politeness: the URLs this round actually probes."""
        config = self.config
        batch: List[_Entry] = []
        for entry in frontier:
            if len(batch) >= config.max_probes_per_round:
                break
            url_text, _source, url = entry
            if url_text in tested:
                continue
            domain = url.registered_domain
            if domain_spend.get(domain, 0) >= config.per_domain_budget:
                continue
            tested.add(url_text)
            domain_spend[domain] = domain_spend.get(domain, 0) + 1
            batch.append(entry)
        return batch


def _spent(
    url: Url, domain_spend: Dict[str, int], config: DiscoveryConfig
) -> bool:
    return domain_spend.get(url.registered_domain, 0) >= config.per_domain_budget


def _candidate(
    url_text: str, source: str, round_index: int, test: UrlTest
) -> Candidate:
    return Candidate(
        url=url_text,
        source=source,
        round_index=round_index,
        verdict=test.comparison.verdict.name,
        blocked=bool(test.blocked and not test.insufficient),
        insufficient=test.insufficient,
        vendor=test.vendor,
        confidence=test.confidence,
    )


def _dedupe(items) -> List[str]:
    seen: Set[str] = set()
    out: List[str] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def static_baseline(
    world: World,
    isp_name: str,
    *,
    engine: Optional[VerdictEngine] = None,
    executor: Optional[Executor] = None,
    link_latency: float = 0.0,
    resilience: Optional[ResilientRunner] = None,
    per_category_global: int = 3,
    per_category_local: int = 2,
) -> List[str]:
    """Blocked URLs found by the static global+local Table 4 lists.

    This is both the coverage baseline discovery must beat and the
    default source of seed URLs.
    """
    isp = world.isps[isp_name]
    entries = list(
        build_global_list(world, per_category=per_category_global).entries
    ) + list(
        build_local_list(
            world, isp.country.code, per_category=per_category_local
        ).entries
    )
    urls = _dedupe(_canonical_url(e.url) for e in entries)
    client = MeasurementClient(
        world.vantage(isp_name),
        world.lab_vantage(),
        engine=engine,
        executor=executor,
        link_latency=link_latency,
        resilience=resilience,
        stage="discover-baseline",
        endpoint=isp_name,
    )
    run = client.run_list([Url.parse(url) for url in urls])
    return sorted(
        url
        for url, test in zip(urls, run.tests)
        if test.blocked and not test.insufficient
    )
