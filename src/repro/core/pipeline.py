"""End-to-end study orchestration.

Replays the paper's whole campaign against the scenario world in
chronological order: the §3 identification scan, the ten Table 3 case
studies (September 2012 through August 2013), the January 2013 YemenNet
category probe, and the §5 characterizations run within 30 days of each
confirmation.

The campaign decomposes into a sequential *unit plan* — identify, one
unit per Table 3 case study, the category probe, one unit per
characterized ISP. Parallelism (``workers``) lives strictly *inside*
a unit; between units the executor is quiescent and the world is at a
well-defined simulation instant. Those boundaries are exactly where the
durability layer (``--journal``) checkpoints: a killed run resumes from
the newest valid snapshot, replays the remaining units, and produces
byte-identical output (see docs/methodology.md, "Durability & resume").
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.paper_data import PAPER_TABLE3, Table3Row
from repro.core.characterize import CharacterizationResult, ContentCharacterization
from repro.core.confirm import (
    CategoryProbeResult,
    ConfirmationConfig,
    ConfirmationResult,
    ConfirmationStudy,
    run_category_probe,
)
from repro.core.identify import IdentificationPipeline, IdentificationReport
from repro.exec.checkpoint import (
    SNAPSHOT_SCHEMA_VERSION,
    fingerprint,
    open_journal,
    write_snapshot,
)
from repro.exec.executor import Executor
from repro.exec.journal import RecoveryReport
from repro.exec.metrics import Metrics
from repro.exec.resilience import (
    QuarantineRecord,
    ResilienceConfig,
    ResilientRunner,
    StageCoverage,
)
from repro.geo.cymru import WhoisService
from repro.geo.maxmind import GeoDatabase
from repro.products.registry import NETSWEEPER, SMARTFILTER, default_registry
from repro.scan.banner import scan_world
from repro.scan.shodan import ShodanIndex
from repro.store import CommitResult, EpochData, ResultsStore, study_epoch
from repro.scan.whatweb import WhatWebEngine, world_probe
from repro.world.clock import SimTime
from repro.world.content import ContentClass
from repro.world.faults import FaultPlan
from repro.world.scenario import DEFAULT_SEED, Scenario, build_scenario

_CATEGORY_CONTENT: Dict[str, ContentClass] = {
    "Proxy Avoidance": ContentClass.PROXY_ANONYMIZER,
    "Proxy anonymizer": ContentClass.PROXY_ANONYMIZER,
    "Anonymizers": ContentClass.PROXY_ANONYMIZER,
    "Pornography": ContentClass.ADULT_IMAGES,
}


def config_for_row(row: Table3Row) -> ConfirmationConfig:
    """Derive the §4 experiment parameters for one published case.

    The vendor-specific knobs — which form category to request and
    whether accessibility can be pre-validated (§4.4: Netsweeper queues
    accesses) — come off the product's registry spec.
    """
    spec = default_registry().get(row.product)
    content_class = _CATEGORY_CONTENT[row.category]
    is_yemen = row.isp_key == "yemennet"
    return ConfirmationConfig(
        product_name=row.product,
        isp_name=row.isp_key,
        content_class=content_class,
        category_label=row.category,
        requested_category=spec.category_requests.get(content_class),
        total_domains=row.total,
        submit_count=row.submitted,
        pre_validate=spec.pre_validate,
        retest_rounds=3 if is_yemen else 1,  # §4.4: inconsistent blocking
    )


@dataclass
class StudyReport:
    """Everything the full campaign produced."""

    identification: IdentificationReport
    confirmations: List[ConfirmationResult] = field(default_factory=list)
    category_probe: Optional[CategoryProbeResult] = None
    characterizations: Dict[str, CharacterizationResult] = field(
        default_factory=dict
    )

    def confirmation_for(
        self, product: str, isp_key: str, category: str
    ) -> Optional[ConfirmationResult]:
        for result in self.confirmations:
            cfg = result.config
            if (
                cfg.product_name == product
                and cfg.isp_name == isp_key
                and cfg.category_label == category
            ):
                return result
        return None

    def confirmed_pairs(self) -> List[Tuple[str, str]]:
        """(product, isp) pairs where censorship use was confirmed."""
        return sorted(
            {
                (r.config.product_name, r.config.isp_name)
                for r in self.confirmations
                if r.confirmed
            }
        )


#: Which published artifact each resilience stage feeds, for the
#: partial-data annotations.
_STAGE_ARTIFACTS: Dict[str, str] = {
    "scan": "Table 2 / Figure 1 (identification scan)",
    "validate": "Table 2 / Figure 1 (WhatWeb validation)",
    "confirm": "Table 3 (confirmation case studies)",
    "probe": "§4.4 category probe",
    "characterize": "Table 4 (content characterization)",
}


@dataclass
class PartialStudyResult:
    """A study that completed under faults, with its gaps made explicit.

    Wraps the ordinary :class:`StudyReport` — every table the campaign
    could still derive — together with the resilience layer's account of
    what was lost: per-stage coverage counters, the quarantine
    dead-letter list, and final breaker states. ``annotations()`` maps
    incomplete stages onto the paper artifacts (Table 2–4 cells) they
    feed, so a reader of a degraded run knows which numbers rest on
    partial data.
    """

    report: StudyReport
    fault_plan: FaultPlan
    coverage: Dict[str, StageCoverage] = field(default_factory=dict)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    breaker_states: Dict[str, Tuple[str, int]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every attempted probe eventually succeeded."""
        return all(cov.complete for cov in self.coverage.values())

    def annotations(self) -> List[str]:
        """Partial-data caveats for the affected paper artifacts."""
        notes: List[str] = []
        for stage, cov in sorted(self.coverage.items()):
            if cov.complete:
                continue
            artifact = _STAGE_ARTIFACTS.get(stage, stage)
            notes.append(
                f"{artifact}: derived from partial data — {cov.describe()}"
            )
        return notes

    def summary_lines(self) -> List[str]:
        """Human-readable degradation summary for the CLI."""
        lines = [f"fault plan: {self.fault_plan.describe()}"]
        lines.append("stage coverage:")
        for stage, cov in sorted(self.coverage.items()):
            lines.append(f"  {stage:14s} {cov.describe()}")
        for note in self.annotations():
            lines.append(f"partial: {note}")
        if self.breaker_states:
            tripped = {
                name: state
                for name, state in self.breaker_states.items()
                if state[1] > 0 or state[0] != "closed"
            }
            if tripped:
                lines.append("circuit breakers:")
                for name, (state, trips) in sorted(tripped.items()):
                    lines.append(f"  {name:24s} {state} ({trips} trip(s))")
        if self.quarantined:
            lines.append(f"quarantined probes: {len(self.quarantined)}")
        return lines


class StudyUnit(NamedTuple):
    """One sequential step of the campaign: a key, a stage, a runner.

    Units are the durability granularity: the runner executes with the
    world at a defined sim instant and leaves it at the next one, and
    everything it mutates is covered by the checkpoint state inventory.
    """

    key: str
    stage: str
    runner: Callable[[], Any]


class FullStudy:
    """Drives the complete reproduction against one scenario.

    ``workers`` fans the independent parts of each stage (Shodan query
    expansions, WhatWeb probes, banner grabs, URL batches) across a
    thread pool; ``link_latency`` models the per-request field RTT that
    parallelism amortizes. Results are byte-identical at any worker
    count: world-mutating fetches commit in submission order and all
    merges are submission-ordered (see docs/methodology.md, "Execution
    model").
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        products: Optional[Sequence[str]] = None,
        shodan_coverage: float = 1.0,
        workers: int = 1,
        link_latency: float = 0.0,
        metrics: Optional[Metrics] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_retries: int = 2,
        fail_fast: bool = False,
        scan_shards: Optional[int] = None,
        record_confidence: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if link_latency < 0:
            raise ValueError("link_latency must be >= 0")
        if scan_shards is not None and scan_shards < 1:
            raise ValueError("scan_shards must be >= 1")
        self._scenario = scenario
        # Resolve eagerly so unknown product names fail fast; None keeps
        # the paper's default selection (the 2013 four).
        self._products: Optional[Tuple[str, ...]] = (
            None
            if products is None
            else tuple(
                spec.name for spec in default_registry().resolve(products)
            )
        )
        self._shodan_coverage = shodan_coverage
        self._link_latency = link_latency
        # An execution-shape knob: like workers, it must not influence
        # study identity — the determinism matrix pins this down.
        self._scan_shards = scan_shards
        self._max_retries = max_retries
        self._fail_fast = fail_fast
        # Opt-in: persist fused confidence + signal breakdowns on epoch
        # rows. Off by default so paper-default epoch ids (content
        # hashes over the row bytes) stay byte-identical.
        self._record_confidence = record_confidence
        self.metrics = metrics if metrics is not None else Metrics()
        self.executor = Executor(
            workers=workers, metrics=self.metrics, name="study"
        )
        # The checkpoint baseline: campaign-registered domains are the
        # delta against this set. Must be captured before any unit runs.
        self._baseline_domains = frozenset(scenario.world.websites)
        self._results: Dict[str, Any] = {}
        #: Recovery account of the last journaled run (resume damage,
        #: snapshot choice, replayed units); None for plain runs.
        self.last_recovery: Optional[RecoveryReport] = None
        # The epoch window opens where the scenario's clock starts; it
        # closes at commit time, after the last unit has advanced it.
        self._window_start = scenario.world.now.minutes
        # The resilience layer exists only when a chaos plan is active:
        # the fault-free baseline takes the untouched code paths and
        # stays byte-identical.
        self.fault_plan = fault_plan
        self.resilience: Optional[ResilientRunner] = None
        if fault_plan is not None and fault_plan.active:
            scenario.world.install_faults(fault_plan)
            self.resilience = ResilientRunner(
                ResilienceConfig(max_retries=max_retries, fail_fast=fail_fast),
                clock=lambda: scenario.world.now,
                metrics=self.metrics,
            )

    # ------------------------------------------------------------- stages
    def run_identification(self) -> IdentificationReport:
        """§3: scan → index → keyword x ccTLD → WhatWeb → geo/whois."""
        world = self._scenario.world
        registry = default_registry()
        with self.metrics.timer("stage.identify"):
            records = scan_world(
                world,
                registry.scan_ports(self._products),
                coverage=self._shodan_coverage,
                executor=self.executor,
                probe_latency=self._link_latency,
                resilience=self.resilience,
                shards=self._scan_shards,
            )
            geo = GeoDatabase.build_from_world(world)
            shodan = ShodanIndex(records, geolocate=geo.country_code)
            whatweb = WhatWebEngine(
                world_probe(world),
                signatures=registry.whatweb_signatures(self._products),
                probe_plan=registry.probe_plan(self._products),
            )
            whois = WhoisService.build_from_world(world)
            pipeline = IdentificationPipeline(
                shodan,
                whatweb,
                geo,
                whois,
                executor=self.executor,
                resilience=self.resilience,
            )
            return pipeline.run(self._products)

    # ---------------------------------------------------------- unit plan
    def plan(self) -> List[StudyUnit]:
        """The campaign as an ordered list of checkpointable units.

        Identification comes first. The selected products' Table 3 case
        studies follow in date order, each on the 10th of its month, with
        ties in Table 3's order; with Netsweeper selected, the YemenNet
        category probe (§4.4, January 2013) goes among them. The §5
        characterizations of the selected products close the campaign.
        """
        selection = self._products or default_registry().default_names()
        dated: List[Tuple[SimTime, int, StudyUnit]] = []
        for index, row in enumerate(PAPER_TABLE3):
            if row.product not in selection:
                continue
            when = SimTime.from_date(row.date[0], row.date[1], 10)
            key = f"confirm:{row.product}:{row.isp_key}:{row.category}"
            runner = functools.partial(self._unit_confirm, when, row)
            dated.append((when, index, StudyUnit(key, "confirm", runner)))
        if NETSWEEPER in selection:
            when = SimTime.from_date(2013, 1, 15)
            runner = functools.partial(self._unit_probe, when)
            dated.append((when, -1, StudyUnit("probe:yemennet", "probe", runner)))
        dated.sort(key=lambda item: item[:2])
        units = [StudyUnit("identify", "identify", self.run_identification)]
        units.extend(unit for _when, _index, unit in dated)
        units.extend(
            StudyUnit(
                f"characterize:{isp}",
                "characterize",
                functools.partial(self._unit_characterize, isp, product),
            )
            for isp, product in (
                ("etisalat", SMARTFILTER),
                ("du", NETSWEEPER),
                ("yemennet", NETSWEEPER),
                ("ooredoo", NETSWEEPER),
            )
            if product in selection
        )
        return units

    # --------------------------------------------------------- unit bodies
    def _unit_confirm(self, when: SimTime, row: Table3Row) -> ConfirmationResult:
        scenario = self._scenario
        world = scenario.world
        with self.metrics.timer("stage.confirm"):
            if world.now < when:
                world.clock.advance_to(when)
            study = ConfirmationStudy(
                world,
                scenario.products[row.product],
                scenario.hosting_asns[0],
                executor=self.executor,
                link_latency=self._link_latency,
                resilience=self.resilience,
            )
            return study.run(config_for_row(row))

    def _unit_probe(self, when: SimTime) -> CategoryProbeResult:
        world = self._scenario.world
        with self.metrics.timer("stage.confirm"):
            if world.now < when:
                world.clock.advance_to(when)
            return run_category_probe(
                world,
                "yemennet",
                executor=self.executor,
                link_latency=self._link_latency,
                resilience=self.resilience,
            )

    def _unit_characterize(self, isp: str, product: str) -> CharacterizationResult:
        with self.metrics.timer("stage.characterize"):
            return ContentCharacterization(
                self._scenario.world,
                executor=self.executor,
                link_latency=self._link_latency,
                resilience=self.resilience,
            ).run(isp, product)

    # ------------------------------------------------------------ run loop
    def _assemble(self) -> StudyReport:
        report = StudyReport(identification=self._results["identify"])
        for unit in self.plan():
            outcome = self._results[unit.key]
            if unit.stage == "confirm":
                report.confirmations.append(outcome)
            elif unit.stage == "probe":
                report.category_probe = outcome
            elif unit.stage == "characterize":
                report.characterizations[outcome.isp_name] = outcome
        return report

    def run(
        self,
        journal_dir: Optional[Path] = None,
        *,
        resume: bool = False,
        checkpoint_every: int = 1,
        after_write: Optional[Callable[..., None]] = None,
    ) -> Union[StudyReport, PartialStudyResult]:
        """The full campaign in paper order.

        Under an active fault plan the report comes wrapped in a
        :class:`PartialStudyResult` with the resilience layer's account
        of it: a study degrades rather than raises, so every table that
        can still be derived is, and the gaps are reported alongside.

        Without ``journal_dir`` nothing is written. With it the run
        keeps a write-ahead journal (``journal.jsonl``) in that
        directory and snapshots after every ``checkpoint_every``-th
        completed unit (always after the last). With ``resume=True`` a
        prior run's durable state is recovered first
        (:func:`open_journal`): the journal's valid prefix is kept
        (torn/corrupt/skewed suffixes truncated and reported), the
        newest verifying snapshot is restored, and only the remaining
        units execute. Output is byte-identical to an uninterrupted
        run; ``self.last_recovery`` records what recovery did.

        ``after_write`` is the crash-matrix test seam, forwarded to
        :class:`JournalWriter` — a hook that raises after the Nth
        durable record simulates a SIGKILL at that journal position.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        writer = None
        if journal_dir is not None:
            identity_fp = self.config_fingerprint()
            writer, snapshot, self.last_recovery = open_journal(
                journal_dir,
                identity_fingerprint=identity_fp,
                resume=resume,
                after_write=after_write,
            )
            if snapshot is not None:
                self.restore_state(snapshot.state)

        units = self.plan()
        pending = [unit for unit in units if unit.key not in self._results]
        done = len(units) - len(pending)

        def record(kind: str, **payload: Any) -> None:
            if writer is not None:
                writer.append(kind, payload)

        try:
            if writer is not None:
                self.last_recovery.units_replayed = [u.key for u in pending]
                if writer.next_seq == 0:
                    seed = self._scenario.world.seed
                    record("begin", fingerprint=identity_fp, seed=seed)
            with self.metrics.timer("study"):
                for unit in pending:
                    record("unit-start", key=unit.key)
                    self._results[unit.key] = unit.runner()
                    done += 1
                    record("unit-commit", key=unit.key, done=done)
                    if writer is not None and (
                        done == len(units) or done % checkpoint_every == 0
                    ):
                        path = write_snapshot(
                            journal_dir,
                            seq=done,
                            identity_fingerprint=identity_fp,
                            state=self.capture_state(),
                        )
                        record("snapshot", file=path.name, done=done)
            record("final", units=len(units))
        finally:
            if writer is not None:
                writer.close()
        return self._outcome()

    def _outcome(self) -> Union[StudyReport, PartialStudyResult]:
        report = self._assemble()
        if self.resilience is None:
            return report
        return PartialStudyResult(
            report=report,
            fault_plan=self.fault_plan,
            coverage=self.resilience.coverage(),
            quarantined=self.resilience.quarantined(),
            breaker_states=self.resilience.breaker_states(),
        )

    # ------------------------------------------------------- results store
    def epoch(self, outcome=None) -> EpochData:
        """A completed (or partial) run as one epoch: the rows a store
        keeps and ``repro study --json`` publishes.

        ``outcome`` defaults to assembling the completed units. The
        epoch carries the study's identity fingerprint (the same one the
        checkpoint layer uses), the sim-clock window the campaign
        spanned, and — for a :class:`PartialStudyResult` — the
        partial-data annotations.
        """
        if outcome is None:
            outcome = self._assemble()
        if isinstance(outcome, PartialStudyResult):
            report = outcome.report
            partial = outcome.annotations()
        else:
            report = outcome
            partial = ()
        return study_epoch(
            report,
            identity=self.identity(),
            fingerprint=self.config_fingerprint(),
            world=self._scenario.world,
            window=(self._window_start, self._scenario.world.now.minutes),
            partial=partial,
            record_confidence=self._record_confidence,
        )

    def commit_epoch(self, store, outcome=None) -> CommitResult:
        """Commit :meth:`epoch` to ``store`` (a ResultsStore or a path).

        Idempotent: the epoch id is a content hash, so re-committing an
        identical run (or the same run at another ``--workers``) lands
        on the already-durable epoch.
        """
        if not isinstance(store, ResultsStore):
            store = ResultsStore(Path(store))
        return store.commit(self.epoch(outcome))

    # ----------------------------------------------------------- durability
    def identity(self) -> Dict[str, Any]:
        """Everything the study's output is a function of (not workers).

        Worker count, link latency, and metrics change wall-clock and
        instrumentation only — the determinism contract proven by the
        worker-invariance suites — so they are deliberately excluded:
        a run may resume with a different ``--workers`` and must still
        produce byte-identical output. Retry budget and fail-fast are
        included because an active fault plan makes them output-visible.
        """
        identity: Dict[str, Any] = {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "seed": self._scenario.world.seed,
            "scenario": dataclasses.asdict(self._scenario.config),
            "products": (
                None if self._products is None else list(self._products)
            ),
            "shodan_coverage": self._shodan_coverage,
            # No longer settable; kept at its old default so the
            # fingerprint and the pinned epoch ids do not move.
            "geo_error_rate": 0.0,
            "fault_plan": (
                None if self.fault_plan is None else self.fault_plan.describe()
            ),
            "max_retries": self._max_retries,
            "fail_fast": self._fail_fast,
        }
        if self._record_confidence:
            # Keyed in only when enabled: confidence fields change the
            # committed row bytes, so the identity must differ — but a
            # default study's fingerprint (and epoch ids) must not move.
            identity["record_confidence"] = True
        return identity

    def config_fingerprint(self) -> str:
        return fingerprint(self.identity())

    def capture_state(self) -> Dict[str, Any]:
        """The complete plain-data study state at a unit boundary.

        The inventory covers everything the remaining units' output can
        depend on: completed unit results, the world delta (clock,
        campaign domains, pool cursors), every vendor's RNG/portal/
        database/queue state, middlebox counters, and the resilience
        layer's breaker/quarantine/coverage state.
        The executor needs no entry: between units it is quiescent (its
        sequencer is created per campaign and has no cross-unit state).
        """
        return {
            "results": dict(self._results),
            **self._scenario.capture_state(self._baseline_domains),
            "resilience": (
                None if self.resilience is None else self.resilience.capture_state()
            ),
        }

    def restore_state(self, state: Dict[str, Any]) -> Dict[str, Any]:
        """Re-apply a captured state onto this freshly built study.

        Returns the completed unit results. The measurement world goes
        first (:meth:`Scenario.restore_state`), then the resilience
        layer. Keys :meth:`capture_state` does not write are ignored,
        such as the lookup-cache contents that snapshots from older
        versions carry under ``"caches"``.
        """
        self._scenario.restore_state(state)
        if state["resilience"] is not None and self.resilience is not None:
            self.resilience.restore_state(state["resilience"])
        self._results = dict(state["results"])
        return self._results


def run_full_study(
    seed: int = DEFAULT_SEED,
    *,
    products: Optional[Sequence[str]] = None,
    workers: int = 1,
    link_latency: float = 0.0,
    metrics: Optional[Metrics] = None,
    fault_plan: Optional[FaultPlan] = None,
    journal_dir: Optional[Path] = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    store_dir: Optional[Path] = None,
):
    """Build the scenario for ``seed``, run the whole campaign with
    :meth:`FullStudy.run`, and return its outcome.

    The report is a pure function of ``seed``, ``products`` and
    ``fault_plan``: ``workers``/``link_latency``/``metrics`` change only
    wall-clock and instrumentation, never the result. Without a fault
    plan (or with an inert one) the outcome is the plain
    :class:`StudyReport`; with an active plan it is a
    :class:`PartialStudyResult` wrapping the report plus its
    coverage/quarantine accounting.

    ``journal_dir``, ``resume`` and ``checkpoint_every`` go to
    :meth:`FullStudy.run`: with a journal the run is durable and a
    killed run resumes to the uninterrupted output. With ``store_dir``
    the outcome is also committed to the results store at that
    directory as one epoch. Scenario knobs, the retry budget and the
    other study options are set by building :class:`FullStudy` directly.
    """
    study = FullStudy(
        build_scenario(seed=seed),
        products=products,
        workers=workers,
        link_latency=link_latency,
        metrics=metrics,
        fault_plan=fault_plan,
    )
    outcome = study.run(
        journal_dir, resume=resume, checkpoint_every=checkpoint_every
    )
    if store_dir is not None:
        study.commit_epoch(store_dir, outcome)
    return outcome
