"""The §3 identification pipeline.

Locate candidate installations with keyword × ccTLD Shodan queries
(Table 2 keywords), validate each candidate with WhatWeb signatures, and
map validated IPs to country (MaxMind) and ASN (Team Cymru). The output
re-derives Figure 1 (countries per product) and the §3.2 network
narrative (which kinds of organizations run filters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exec.executor import Executor
from repro.exec.resilience import ResilientRunner
from repro.geo.cymru import WhoisService
from repro.geo.maxmind import GeoDatabase
from repro.net.ip import Ipv4Address
from repro.net.url import COUNTRY_CODE_TLDS
from repro.products.registry import default_registry
from repro.products.signatures import Evidence
from repro.scan.shodan import ShodanIndex, ShodanQueryLog
from repro.scan.whatweb import WhatWebEngine, WhatWebReport
from repro.world.entities import OrgKind


@dataclass
class Candidate:
    """An IP surfaced by keyword search, before validation."""

    ip: Ipv4Address
    product: str
    matched_queries: List[str] = field(default_factory=list)


@dataclass
class Installation:
    """A validated URL-filter installation."""

    ip: Ipv4Address
    product: str
    country_code: str
    asn: Optional[int]
    as_name: str
    org_name: str
    org_kind: Optional[OrgKind]
    evidence: List[Evidence] = field(default_factory=list)


@dataclass
class IdentificationReport:
    """Everything the identification pipeline produced."""

    candidates: List[Candidate] = field(default_factory=list)
    installations: List[Installation] = field(default_factory=list)
    rejected: List[Candidate] = field(default_factory=list)
    queries_issued: int = 0
    #: The product selection this report covers (registry defaults if
    #: the pipeline was run without an explicit selection).
    products: Tuple[str, ...] = ()

    def countries(self, product: str) -> Set[str]:
        """Figure 1: countries where ``product`` installations were found."""
        return {
            inst.country_code
            for inst in self.installations
            if inst.product == product and inst.country_code
        }

    def country_map(self) -> Dict[str, Set[str]]:
        names = self.products or default_registry().default_names()
        return {product: self.countries(product) for product in names}

    def by_product(self, product: str) -> List[Installation]:
        return [i for i in self.installations if i.product == product]

    def installations_in(self, country_code: str) -> List[Installation]:
        return [
            i for i in self.installations if i.country_code == country_code
        ]

    def org_kinds(self, product: str) -> Dict[OrgKind, int]:
        """§3.2: what kinds of networks host this product."""
        counts: Dict[OrgKind, int] = {}
        for installation in self.by_product(product):
            if installation.org_kind is not None:
                counts[installation.org_kind] = (
                    counts.get(installation.org_kind, 0) + 1
                )
        return counts

    @property
    def precision(self) -> float:
        """Fraction of candidates surviving validation."""
        total = len(self.candidates)
        return len(self.installations) / total if total else 0.0


class IdentificationPipeline:
    """§3.1: locate → validate → geolocate."""

    def __init__(
        self,
        shodan: ShodanIndex,
        whatweb: WhatWebEngine,
        geo: GeoDatabase,
        whois: WhoisService,
        *,
        cctlds: Optional[Sequence[str]] = None,
        executor: Optional[Executor] = None,
        resilience: Optional[ResilientRunner] = None,
    ) -> None:
        self._shodan = shodan
        self._whatweb = whatweb
        self._geo = geo
        self._whois = whois
        self._cctlds = sorted(cctlds if cctlds is not None else COUNTRY_CODE_TLDS)
        self._executor = executor
        self._resilience = resilience

    @classmethod
    def from_census(
        cls,
        census,
        whatweb: WhatWebEngine,
        geo: GeoDatabase,
        whois: WhoisService,
    ) -> "IdentificationPipeline":
        """§3.1 'ongoing work': drive the pipeline from Internet-Census
        data instead of Shodan — full coverage, no per-query result cap,
        so the keyword x ccTLD expansion becomes unnecessary (a single
        uncapped query per keyword suffices)."""
        index = ShodanIndex(
            census.records, result_cap=1 << 30, geolocate=geo.country_code
        )
        return cls(index, whatweb, geo, whois, cctlds=[])

    def locate(
        self, products: Optional[Sequence[str]] = None
    ) -> List[Candidate]:
        """Keyword × ccTLD search: deliberately not conservative.

        ``products`` selects registry specs (None → paper defaults).
        Each (product, keyword) expansion is an independent read-only
        query batch, so they fan out across workers. Every task records
        into a private query log; logs and hits merge back in submission
        order, keeping both the candidate list and the query accounting
        identical at any worker count.
        """
        keywords = default_registry().shodan_keywords(products)
        jobs = [
            (product, keyword)
            for product, product_keywords in keywords.items()
            for keyword in product_keywords
        ]

        def run_query(job: Tuple[str, str]):
            product, keyword = job
            task_log = ShodanQueryLog()
            hits = self._shodan.search_expanded(
                keyword, self._cctlds, log=task_log
            )
            return product, keyword, hits, task_log.entries

        executor = self._executor or Executor()
        batches = executor.map(run_query, jobs, label="locate")

        by_key: Dict[Tuple[int, str], Candidate] = {}
        for product, keyword, hits, log_entries in batches:
            for query, count in log_entries:
                self._shodan.log.record(query, count)
            for record in hits:
                key = (record.ip.value, product)
                candidate = by_key.get(key)
                if candidate is None:
                    candidate = Candidate(record.ip, product)
                    by_key[key] = candidate
                if keyword not in candidate.matched_queries:
                    candidate.matched_queries.append(keyword)
        return list(by_key.values())

    def validate(self, candidates: Sequence[Candidate]) -> IdentificationReport:
        """WhatWeb validation plus geo/whois mapping.

        Probing and the lookups are read-only, so candidates validate in
        parallel; the accept/reject bookkeeping runs afterwards in
        candidate order so the report is scheduling-independent.

        Under a resilience policy a probe that exhausts its retries is
        quarantined and the candidate rejected: an unreachable console is
        never claimed as a validated installation. No breaker attaches —
        the fan-out is unordered.
        """

        def probe(candidate: Candidate) -> Optional[WhatWebReport]:
            if self._resilience is None:
                return self._whatweb.identify(candidate.ip)
            outcome = self._resilience.call(
                lambda: self._whatweb.identify(candidate.ip),
                stage="validate",
                key=f"{candidate.ip}/{candidate.product}",
            )
            return outcome.value if outcome.ok else None

        executor = self._executor or Executor()
        whatweb_reports = executor.map(probe, candidates, label="validate")

        report = IdentificationReport(candidates=list(candidates))
        validated_ips: Set[Tuple[int, str]] = set()
        for candidate, whatweb_report in zip(candidates, whatweb_reports):
            if whatweb_report is None:
                report.rejected.append(candidate)
                continue
            match = next(
                (
                    m
                    for m in whatweb_report.matches
                    if m.product == candidate.product
                ),
                None,
            )
            if match is None:
                report.rejected.append(candidate)
                continue
            key = (candidate.ip.value, candidate.product)
            if key in validated_ips:
                continue
            validated_ips.add(key)
            whois_record = self._whois.lookup(candidate.ip)
            report.installations.append(
                Installation(
                    ip=candidate.ip,
                    product=candidate.product,
                    country_code=self._geo.country_code(candidate.ip) or "",
                    asn=whois_record.asn if whois_record else None,
                    as_name=whois_record.as_name if whois_record else "",
                    org_name=whois_record.org_name if whois_record else "",
                    org_kind=whois_record.org_kind if whois_record else None,
                    evidence=match.evidence,
                )
            )
        report.queries_issued = self._shodan.log.query_count
        return report

    def run(
        self, products: Optional[Sequence[str]] = None
    ) -> IdentificationReport:
        """The full §3.1 pipeline for a product selection (None → defaults)."""
        specs = default_registry().resolve(products)
        report = self.validate(self.locate(products))
        report.products = tuple(spec.name for spec in specs)
        return report
