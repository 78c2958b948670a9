"""The §4 confirmation methodology — the paper's core contribution.

"The basic idea is to test sites (under our control) that are not
blocked within the ISP, and then submit a subset of these sites to the
appropriate URL filter vendor. After 3-5 days, we retest the sites and
observe whether or not the submitted sites are blocked. If they are
blocked, it is highly likely that the URL filter under consideration is
being used for censorship."

The split between submitted and held-out control domains carries the
causal claim: only the submitted half should flip to blocked.

Product-specific variations handled here:

- **Netsweeper** (§4.4): no pre-validation — accessing a site queues it
  for categorization, so accessibility cannot be verified first.
- **Inconsistent blocking** (§4.4, Challenge 2): multiple retest rounds,
  a site counting as blocked if any round blocks it.
- **Category probe** (§4.4): enumerate blocked Netsweeper categories via
  the vendor's denypagetests host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exec.executor import Executor
from repro.exec.resilience import ResilientRunner
from repro.measure.classifiers.fusion import VerdictEngine
from repro.measure.client import MeasurementClient
from repro.measure.verdict import Verdict
from repro.measure.domains import TestDomainFactory
from repro.net.url import Url
from repro.products.base import UrlFilterProduct
from repro.products.categories import NETSWEEPER_TAXONOMY, Taxonomy, VendorCategory
from repro.products.netsweeper import CATEGORY_TEST_HOST
from repro.products.submission import Submission, SubmitterIdentity
from repro.world.clock import SimTime
from repro.world.content import ContentClass
from repro.world.world import World

#: The researchers' laundered identity (§6.2: proxies/Tor + webmail).
DEFAULT_SUBMITTER = SubmitterIdentity(
    email="research.tester@freemail.example",
    source_ip="203.0.113.50",
    via_proxy=True,
)


@dataclass
class ConfirmationConfig:
    """One Table 3 case study's parameters."""

    product_name: str
    isp_name: str
    content_class: ContentClass
    category_label: str  # Table 3 "Category" column text
    requested_category: Optional[str] = None  # vendor category on the form
    total_domains: int = 10
    submit_count: int = 5
    wait_days: float = 5.0  # §4.2: "after 3-5 days, we retest"
    pre_validate: bool = True
    retest_rounds: int = 1
    round_gap_days: float = 0.25
    cleanup_sensitive: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.submit_count <= self.total_domains:
            raise ValueError("submit_count must be in (0, total_domains]")
        if self.retest_rounds < 1:
            raise ValueError("need at least one retest round")


@dataclass
class DomainOutcome:
    """Per-domain record across retest rounds."""

    domain: str
    submitted: bool
    blocked_rounds: int = 0
    total_rounds: int = 0
    #: Rounds where the measurement itself failed (retries exhausted,
    #: vantage outage): the domain was neither blocked nor accessible.
    insufficient_rounds: int = 0
    vendors_seen: List[str] = field(default_factory=list)
    #: Per-round fused verdict confidences, in round order. A quarantined
    #: round contributes 0.0, so partial data visibly lowers aggregates.
    confidences: List[float] = field(default_factory=list)
    #: Classifier name -> number of rounds it contributed a signal.
    signal_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def blocked(self) -> bool:
        """Blocked in any round (§4.4: inconsistent blocking)."""
        return self.blocked_rounds > 0

    @property
    def mean_confidence(self) -> float:
        """Average fused confidence across rounds (1.0 when untested)."""
        if not self.confidences:
            return 1.0
        return sum(self.confidences) / len(self.confidences)


@dataclass
class ConfirmationResult:
    """One completed case study (one Table 3 row)."""

    config: ConfirmationConfig
    submitted_at: SimTime
    retested_at: SimTime
    pre_check_accessible: Optional[int]
    outcomes: List[DomainOutcome]
    submissions: List[Submission]
    notes: List[str] = field(default_factory=list)

    @property
    def submitted_outcomes(self) -> List[DomainOutcome]:
        return [o for o in self.outcomes if o.submitted]

    @property
    def control_outcomes(self) -> List[DomainOutcome]:
        return [o for o in self.outcomes if not o.submitted]

    @property
    def blocked_submitted(self) -> int:
        return sum(1 for o in self.submitted_outcomes if o.blocked)

    @property
    def blocked_control(self) -> int:
        return sum(1 for o in self.control_outcomes if o.blocked)

    @property
    def confirmed(self) -> bool:
        """The §4.2 verdict: did our submissions flip to blocked?

        Nearly all submitted sites must block (Table 3 accepts 5/6)
        while the held-out controls stay accessible.
        """
        submitted = len(self.submitted_outcomes)
        control = len(self.control_outcomes)
        if submitted == 0:
            return False
        need = max(1, submitted - 1)
        control_budget = control // 3
        return (
            self.blocked_submitted >= need
            and self.blocked_control <= control_budget
        )

    @property
    def detected_vendors(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            for vendor in outcome.vendors_seen:
                counts[vendor] = counts.get(vendor, 0) + 1
        return counts

    @property
    def confidence(self) -> float:
        """Mean fused confidence across every retest round.

        Quarantined rounds contribute 0.0, so a case study built on
        partial data reports visibly lower confidence than a clean one.
        Defaults to 1.0 when no rounds carry confidences (pre-fusion
        snapshots).
        """
        values = [
            value
            for outcome in self.outcomes
            for value in getattr(outcome, "confidences", [])
        ]
        if not values:
            return 1.0
        return sum(values) / len(values)

    def signal_summary(self) -> Dict[str, int]:
        """Classifier name -> domain-rounds it contributed, sorted by name."""
        totals: Dict[str, int] = {}
        for outcome in self.outcomes:
            for name, count in getattr(outcome, "signal_counts", {}).items():
                totals[name] = totals.get(name, 0) + count
        return dict(sorted(totals.items()))

    def summary_row(self) -> str:
        """Render as a Table 3 style row."""
        cfg = self.config
        mark = "yes" if self.confirmed else "no"
        return (
            f"{cfg.product_name} | {cfg.isp_name} | {self.submitted_at} | "
            f"{cfg.submit_count}/{cfg.total_domains} | {cfg.category_label} | "
            f"{self.blocked_submitted}/{len(self.submitted_outcomes)} | {mark}"
        )


class ConfirmationStudy:
    """Runs §4.2 case studies against one (product, ISP) pair."""

    def __init__(
        self,
        world: World,
        product: UrlFilterProduct,
        hosting_asn: int,
        *,
        submitter: SubmitterIdentity = DEFAULT_SUBMITTER,
        engine: Optional[VerdictEngine] = None,
        executor: Optional[Executor] = None,
        link_latency: float = 0.0,
        resilience: Optional[ResilientRunner] = None,
    ) -> None:
        self._world = world
        self._product = product
        self._hosting_asn = hosting_asn
        self._submitter = submitter
        self._engine = engine or VerdictEngine()
        self._executor = executor
        self._link_latency = link_latency
        self._resilience = resilience

    def _client(self, isp_name: str) -> MeasurementClient:
        # The breaker endpoint is (vantage x product): one flaky ISP link
        # must not open the breaker for the same product elsewhere.
        return MeasurementClient(
            self._world.vantage(isp_name),
            self._world.lab_vantage(),
            engine=self._engine,
            executor=self._executor,
            link_latency=self._link_latency,
            resilience=self._resilience,
            stage="confirm",
            endpoint=f"{isp_name}/{self._product.vendor}",
        )

    def run(self, config: ConfirmationConfig) -> ConfirmationResult:
        """Execute one case study end to end."""
        if config.product_name != self._product.vendor:
            raise ValueError(
                f"study bound to {self._product.vendor}, config names "
                f"{config.product_name}"
            )
        world = self._world
        notes: List[str] = []
        factory = TestDomainFactory(
            world,
            self._hosting_asn,
            rng_label=(
                f"confirm/{config.product_name}/{config.isp_name}/"
                f"{world.now.minutes}"
            ),
        )
        domains = factory.create_batch(config.total_domains, config.content_class)
        client = self._client(config.isp_name)

        pre_accessible: Optional[int] = None
        if config.pre_validate:
            run = client.run_list([d.test_url for d in domains])
            pre_accessible = len(run.accessible_tests())
            pre_insufficient = sum(1 for t in run.tests if t.insufficient)
            if pre_insufficient:
                notes.append(
                    f"pre-check: {pre_insufficient}/{len(domains)} probes "
                    "lost to infrastructure faults (no verdict)"
                )
            if pre_accessible < len(domains):
                notes.append(
                    f"pre-check: only {pre_accessible}/{len(domains)} "
                    "accessible before submission"
                )
        else:
            notes.append(
                "no pre-validation: product queues accessed sites for "
                "categorization (§4.4)"
            )

        submitted_domains = domains[: config.submit_count]
        submissions = [
            self._product.portal.submit(
                domain.url,
                self._submitter,
                world.now,
                requested_category=config.requested_category,
            )
            for domain in submitted_domains
        ]
        submitted_at = world.now

        world.advance_days(config.wait_days)

        outcomes = [
            DomainOutcome(d.domain, submitted=(d in submitted_domains))
            for d in domains
        ]
        for round_index in range(config.retest_rounds):
            run = client.run_list([d.test_url for d in domains])
            for outcome, test in zip(outcomes, run.tests):
                outcome.total_rounds += 1
                outcome.confidences.append(test.confidence)
                for name in test.comparison.signal_names():
                    outcome.signal_counts[name] = (
                        outcome.signal_counts.get(name, 0) + 1
                    )
                if test.insufficient:
                    # A failed probe is a gap in the data, never a
                    # verdict: the §4.2 differential must not count it
                    # on either side.
                    outcome.insufficient_rounds += 1
                elif test.blocked:
                    outcome.blocked_rounds += 1
                    if test.vendor and test.vendor not in outcome.vendors_seen:
                        outcome.vendors_seen.append(test.vendor)
            if round_index + 1 < config.retest_rounds:
                world.advance_days(config.round_gap_days)
        retested_at = world.now

        lost_rounds = sum(o.insufficient_rounds for o in outcomes)
        if lost_rounds:
            notes.append(
                f"partial data: {lost_rounds} domain-round(s) lost to "
                "infrastructure faults; Table 3 cell derived from "
                "incomplete retests"
            )

        if config.cleanup_sensitive and config.content_class in (
            ContentClass.ADULT_IMAGES,
            ContentClass.PORNOGRAPHY,
        ):
            for domain in domains:
                factory.remove_sensitive_content(domain)
            notes.append("sensitive content removed after testing (§4.6)")

        return ConfirmationResult(
            config=config,
            submitted_at=submitted_at,
            retested_at=retested_at,
            pre_check_accessible=pre_accessible,
            outcomes=outcomes,
            submissions=submissions,
            notes=notes,
        )


@dataclass
class CategoryProbeResult:
    """§4.4: which vendor categories a Netsweeper deployment denies."""

    isp_name: str
    probed_at: SimTime
    blocked: List[VendorCategory]
    tested: int

    @property
    def blocked_names(self) -> List[str]:
        return sorted(category.name for category in self.blocked)


def run_category_probe(
    world: World,
    isp_name: str,
    taxonomy: Taxonomy = NETSWEEPER_TAXONOMY,
    *,
    engine: Optional[VerdictEngine] = None,
    executor: Optional[Executor] = None,
    link_latency: float = 0.0,
    resilience: Optional[ResilientRunner] = None,
) -> CategoryProbeResult:
    """Fetch each denypagetests category URL from the field vantage.

    A category counts as blocked when its test page yields a block-page
    verdict in the field while the lab sees the vendor's plain test page.
    The per-category fetches are independent, so they run through the
    executor's URL fan-out; results come back in taxonomy order.
    A quarantined probe counts the category as not-blocked (the probe
    under-reports rather than inventing a denial).
    """
    client = MeasurementClient(
        world.vantage(isp_name),
        world.lab_vantage(),
        engine=engine,
        executor=executor,
        link_latency=link_latency,
        resilience=resilience,
        stage="probe",
        endpoint=f"{isp_name}/category-probe",
    )
    urls = [
        Url.parse(
            f"http://{CATEGORY_TEST_HOST}/category/catno/{category.number}"
        )
        for category in taxonomy.categories
    ]
    run = client.run_list(urls)
    blocked: List[VendorCategory] = [
        category
        for category, test in zip(taxonomy.categories, run.tests)
        if test.comparison.verdict is Verdict.BLOCKED_BLOCKPAGE
    ]
    return CategoryProbeResult(
        isp_name=isp_name,
        probed_at=world.now,
        blocked=blocked,
        tested=len(taxonomy.categories),
    )
