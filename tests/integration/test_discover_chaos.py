"""Chaos gate for discovery: faults may stall, never pad, the list.

The PR-3 invariant applied to the discovery workload: under an active
fault plan a probe can degrade to INSUFFICIENT (and the crawl can
therefore miss URLs), but no fault may ever put a URL on the
discovered list that the verdict engine did not positively mark
blocked. Swept across 12 fault seeds.
"""

from __future__ import annotations

import pytest

from repro.discover import DiscoveryConfig, DiscoveryEngine, static_baseline
from repro.exec.resilience import ResilienceConfig, ResilientRunner
from repro.measure.client import MeasurementClient
from repro.net.url import Url
from repro.world.faults import FaultPlan
from repro.world.scenario import ScenarioConfig, build_scenario

VANTAGE = "etisalat"
POPULATION = 160
CHAOS_RATES = dict(
    dns_timeout_rate=0.05,
    reset_rate=0.04,
    timeout_rate=0.03,
    truncate_rate=0.04,
)
FAULT_SEEDS = list(range(1, 13))
CONFIG = DiscoveryConfig(max_rounds=5, max_probes_per_round=60)


def _chaos_run(fault_seed: int):
    scenario = build_scenario(
        config=ScenarioConfig(population_size=POPULATION)
    )
    world = scenario.world
    plan = FaultPlan(seed=fault_seed, **CHAOS_RATES)
    world.install_faults(plan)
    resilience = ResilientRunner(
        ResilienceConfig(max_retries=1),
        clock=lambda: world.now,
    )
    baseline = static_baseline(world, VANTAGE, resilience=resilience)
    engine = DiscoveryEngine(
        world, VANTAGE, config=CONFIG, resilience=resilience
    )
    seeds = baseline[:5]
    if not seeds:
        pytest.skip(f"fault seed {fault_seed} starved the static baseline")
    return engine.run(seeds)


@pytest.fixture(scope="module")
def fault_free_truth():
    """Ground truth: every URL the filter actually blocks, per the
    fault-free world."""
    world = build_scenario(
        config=ScenarioConfig(population_size=POPULATION)
    ).world
    return world


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_no_insufficient_url_admitted(fault_seed):
    result = _chaos_run(fault_seed)
    admitted = set(result.blocked_urls)
    for candidate in result.candidates:
        if candidate.insufficient:
            assert candidate.url not in admitted, (
                f"fault seed {fault_seed} admitted INSUFFICIENT "
                f"{candidate.url}"
            )
    # Every admitted URL is backed by a positive, sufficient verdict.
    positive = {
        c.url
        for c in result.candidates
        if c.blocked and not c.insufficient
    }
    assert admitted <= positive


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS[:4])
def test_admitted_urls_are_really_blocked(fault_seed, fault_free_truth):
    """Chaos-discovered URLs re-probe as blocked in a fault-free world."""
    result = _chaos_run(fault_seed)
    client = MeasurementClient(
        fault_free_truth.vantage(VANTAGE), fault_free_truth.lab_vantage()
    )
    sample = result.blocked_urls[:25]
    run = client.run_list([Url.parse(u) for u in sample])
    for url, test in zip(sample, run.tests):
        assert test.blocked and not test.insufficient, (
            f"fault seed {fault_seed} manufactured a verdict for {url}"
        )