"""Discovery determinism: seeds that differ diverge, and a crawl converges.

Byte-identity across worker counts and re-runs is pinned by
``tests/golden/test_discover_pins.py``."""

from __future__ import annotations

import pytest

from repro.discover import DiscoveryConfig, DiscoveryEngine, static_baseline
from repro.world.scenario import ScenarioConfig, build_scenario

VANTAGE = "etisalat"
POPULATION = 200


def _discovered_list(seed: int = 2013) -> str:
    scenario = build_scenario(
        seed=seed, config=ScenarioConfig(population_size=POPULATION)
    )
    world = scenario.world
    baseline = static_baseline(world, VANTAGE)
    result = DiscoveryEngine(world, VANTAGE).run(baseline[:5])
    return result.discovered_list_text()


class DescribeWorkerInvariance:
    def test_different_seed_diverges(self):
        base = _discovered_list()
        other = _discovered_list(seed=99)
        assert base != other


class DescribeConvergence:
    def test_small_world_converges_and_gains_coverage(self):
        scenario = build_scenario(
            config=ScenarioConfig(population_size=POPULATION)
        )
        world = scenario.world
        baseline = static_baseline(world, VANTAGE)
        assert baseline, "static lists must find blocked URLs"
        engine = DiscoveryEngine(
            world, VANTAGE, config=DiscoveryConfig(max_rounds=20)
        )
        result = engine.run(baseline[:5])
        assert result.converged
        assert result.rounds[-1].new_blocked == 0
        assert len(result.blocked_urls) >= 2 * len(baseline)