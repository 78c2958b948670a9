"""Chaos acceptance tests: studies under seeded fault plans.

Three invariants from the failure model (docs/methodology.md):

1. **Never wrong.** A transient infrastructure failure may cost a data
   point (``Verdict.INSUFFICIENT``) but must never flip a verdict — no
   chaos seed may convert a failed probe into "blocked" or "accessible".
2. **Worker invariance.** Same seed + plan → identical partial result
   (coverage, quarantine, breakers, report bytes) at any worker count.
3. **Baseline preservation.** No plan, or an inert plan, produces the
   plain ``StudyReport`` byte-identical to the fault-free pipeline.

The CI ``chaos`` job sets ``REPRO_FAULT_PLAN``; the study-level cases
below run against that plan when present, else a fixed default, so one
suite serves both the plain and the chaos matrix legs.
"""

from __future__ import annotations

import os

from repro.analysis.export import to_json
from repro.cli import main
from repro.core.pipeline import FullStudy, PartialStudyResult
from repro.exec.metrics import Metrics
from repro.exec.resilience import ResilienceConfig, ResilientRunner
from repro.measure.client import MeasurementClient
from repro.measure.verdict import Verdict
from repro.net.url import Url
from repro.world.faults import FaultPlan
from repro.world.scenario import build_scenario

from tests.integration.test_failure_injection import filtered_world

MINI_URLS = (
    "http://free-proxy.example.com/",
    "http://adult-site.example.com/",
    "http://daily-news.example.com/",
)

#: Rates high enough that 20+ seeds certainly inject faults into the
#: three-site mini campaign (non-vacuity is asserted, not assumed).
CHAOS_RATES = dict(
    dns_timeout_rate=0.08,
    nxdomain_rate=0.05,
    reset_rate=0.06,
    timeout_rate=0.05,
)


def env_or_default_plan() -> FaultPlan:
    """The CI job's plan when REPRO_FAULT_PLAN is set, else a fixed one."""
    spec = os.environ.get("REPRO_FAULT_PLAN", "")
    if spec:
        return FaultPlan.parse(spec)
    return FaultPlan.parse(
        "seed=1913,dns_timeout=0.04,reset=0.03,timeout=0.02,"
        "truncate=0.04,slow=0.03"
    )


def mini_verdicts(plan=None, max_retries=1):
    """Measure the mini world's three sites, optionally under a plan."""
    world, product = filtered_world()
    # Seed the vendor database so ground truth includes a blocked site.
    product.database.add(
        "free-proxy.example.com",
        product.taxonomy.by_name("Anonymizers"),
        world.now,
    )
    runner = None
    if plan is not None:
        world.install_faults(plan)
        runner = ResilientRunner(
            ResilienceConfig(max_retries=max_retries),
            clock=lambda: world.now,
            metrics=Metrics(),
        )
    client = MeasurementClient(
        world.vantage("testnet"),
        world.lab_vantage(),
        resilience=runner,
        stage="measure",
        endpoint="testnet/mini",
    )
    return {
        url: client.test_url(Url.parse(url)).comparison.verdict
        for url in MINI_URLS
    }


class DescribeNeverWrongInvariant:
    def test_no_seed_converts_a_failure_into_a_verdict(self):
        """Property over 24 seeds: chaos verdict ∈ {truth, INSUFFICIENT}."""
        truth = mini_verdicts()
        # The mini deployment blocks Anonymizers: the property must
        # cover both a blocked and accessible ground truth.
        assert truth["http://free-proxy.example.com/"].is_blocked
        assert truth["http://daily-news.example.com/"] is Verdict.ACCESSIBLE

        degraded_seeds = 0
        for seed in range(24):
            plan = FaultPlan(seed=seed, **CHAOS_RATES)
            chaos = mini_verdicts(plan)
            for url, verdict in chaos.items():
                assert verdict in (truth[url], Verdict.INSUFFICIENT), (
                    f"seed {seed}: {url} gave {verdict}, "
                    f"truth {truth[url]}"
                )
            if Verdict.INSUFFICIENT in chaos.values():
                degraded_seeds += 1
        # Non-vacuity: these rates really do quarantine probes — the
        # property above was exercised, not skipped.
        assert degraded_seeds > 0

    def test_insufficient_is_never_counted_as_blocked(self):
        plan = FaultPlan(seed=3, nxdomain_rate=1.0)  # permanent: no retry
        chaos = mini_verdicts(plan)
        assert set(chaos.values()) == {Verdict.INSUFFICIENT}
        assert not any(v.is_blocked for v in chaos.values())


class DescribeStudyDegradation:
    def test_full_study_completes_and_is_worker_invariant(self):
        plan = env_or_default_plan()
        studies = [
            FullStudy(build_scenario(), fault_plan=plan, workers=workers)
            for workers in (1, 4)
        ]
        sequential, fanned_out = [study.run() for study in studies]
        for partial in (sequential, fanned_out):
            assert isinstance(partial, PartialStudyResult)
        assert {
            stage: cov.as_dict()
            for stage, cov in sequential.coverage.items()
        } == {
            stage: cov.as_dict()
            for stage, cov in fanned_out.coverage.items()
        }
        assert [str(q) for q in sequential.quarantined] == [
            str(q) for q in fanned_out.quarantined
        ]
        assert sequential.breaker_states == fanned_out.breaker_states
        assert to_json(studies[0].epoch(sequential)) == to_json(
            studies[1].epoch(fanned_out)
        )
        # The degradation summary renders and names the plan.
        lines = sequential.summary_lines()
        assert lines[0] == f"fault plan: {plan.describe()}"
        if not sequential.complete:
            assert any("partial data" in note for note in lines)

    def test_inert_plan_preserves_baseline_bytes(self):
        baseline_study = FullStudy(
            build_scenario(), products=["McAfee SmartFilter"]
        )
        replay_study = FullStudy(
            build_scenario(),
            products=["McAfee SmartFilter"],
            fault_plan=FaultPlan(seed=5),  # all rates zero: inert
            workers=4,
        )
        baseline, replay = baseline_study.run(), replay_study.run()
        # Inert plan → plain StudyReport, not a partial wrapper, and
        # byte-identical to the fault-free single-worker baseline.
        assert not isinstance(replay, PartialStudyResult)
        assert to_json(replay_study.epoch(replay)) == to_json(
            baseline_study.epoch(baseline)
        )

    def test_annotations_map_gaps_onto_paper_artifacts(self):
        plan = FaultPlan(seed=11, nxdomain_rate=0.25, reset_rate=0.2)
        partial = FullStudy(
            build_scenario(),
            products=["McAfee SmartFilter"],
            fault_plan=plan,
            max_retries=1,
        ).run()
        assert isinstance(partial, PartialStudyResult)
        assert not partial.complete
        notes = partial.annotations()
        assert notes
        # Each caveat names a published artifact, not an internal stage.
        assert all("Table" in n or "§" in n for n in notes)


class DescribeCliChaosFlags:
    def test_malformed_fault_plan_is_a_usage_error(self, capsys):
        assert main(["study", "--fault-plan", "bogus=1"]) == 2
        assert "bad --fault-plan" in capsys.readouterr().err

    def test_negative_retry_budget_is_a_usage_error(self, capsys):
        assert main(["study", "--max-retries", "-1"]) == 2
        assert "--max-retries" in capsys.readouterr().err
