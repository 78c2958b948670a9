"""The discovery engine: admission gate, budgets, convergence."""

from __future__ import annotations

import pytest

from repro.discover import (
    CoverageReport,
    DiscoveryConfig,
    DiscoveryEngine,
    SearchIndex,
    static_baseline,
)
from repro.discover.crawler import _extract_keywords, _extract_links
from repro.net.url import Url
from repro.world.scenario import ScenarioConfig, build_scenario

VANTAGE = "etisalat"


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(config=ScenarioConfig(population_size=200))


@pytest.fixture(scope="module")
def baseline(scenario):
    return static_baseline(scenario.world, VANTAGE)


@pytest.fixture(scope="module")
def result(scenario, baseline):
    engine = DiscoveryEngine(scenario.world, VANTAGE)
    return engine.run(baseline[:5])


class DescribeDiscoveryConfig:
    def test_rejects_nonpositive_budgets(self):
        with pytest.raises(ValueError):
            DiscoveryConfig(max_rounds=0)
        with pytest.raises(ValueError):
            DiscoveryConfig(per_domain_budget=0)

    def test_identity_round_trips_every_knob(self):
        config = DiscoveryConfig(max_rounds=3, queries_per_round=5)
        identity = config.identity()
        assert identity["max_rounds"] == 3
        assert identity["queries_per_round"] == 5
        assert DiscoveryConfig(**identity) == config


class DescribeExtraction:
    def test_links_canonicalized(self):
        base = Url.parse("http://site.com/article-1")
        body = (
            '<a href="http://peer.net//a?x=1">p</a>'
            '<a href="/article-2?ref=home">n</a>'
            '<a href="mailto:x@y.z">skip</a>'
        )
        assert _extract_links(base, body, {}) == [
            "http://peer.net/a",
            "http://site.com/article-2",
        ]

    def test_keywords_ranked_by_frequency(self):
        body = "<p>maplekeeper maplekeeper cedarfinder otherword</p>"
        assert _extract_keywords(body, 2) == ["maplekeeper", "cedarfinder"]


class DescribeDiscoveryRun:
    def test_needs_a_seed(self, scenario):
        engine = DiscoveryEngine(scenario.world, VANTAGE)
        with pytest.raises(ValueError):
            engine.run([])

    def test_converges_with_zero_new_blocked_round(self, result):
        assert result.converged
        assert result.rounds[-1].new_blocked == 0
        assert all(r.new_blocked > 0 for r in result.rounds[:-1])

    def test_admission_gate_blocks_only(self, result):
        admitted = set(result.blocked_urls)
        for candidate in result.candidates:
            if candidate.url in admitted:
                continue
            assert not candidate.blocked or candidate.insufficient

    def test_no_insufficient_url_admitted(self, result):
        insufficient = {
            c.url for c in result.candidates if c.insufficient
        }
        assert insufficient.isdisjoint(result.blocked_urls)

    def test_candidates_deduped(self, result):
        urls = [c.url for c in result.candidates]
        assert len(urls) == len(set(urls))

    def test_per_domain_politeness_budget(self, result):
        spend = {}
        for candidate in result.candidates:
            domain = Url.parse(candidate.url).registered_domain
            spend[domain] = spend.get(domain, 0) + 1
        budget = result.config.per_domain_budget
        assert max(spend.values()) <= budget

    def test_round_probe_cap(self, result):
        cap = result.config.max_probes_per_round
        assert all(r.probed <= cap for r in result.rounds)

    def test_discovered_list_is_sorted_text(self, result):
        lines = result.discovered_list_text().splitlines()
        assert lines == sorted(result.blocked_urls)
        assert len(result.trace_text().splitlines()) == len(result.rounds)

    def test_ground_truth_all_admitted_urls_really_blocked(
        self, scenario, result
    ):
        """Re-probing each admitted URL independently stays blocked."""
        world = build_scenario(
            config=ScenarioConfig(population_size=200)
        ).world
        from repro.measure.client import MeasurementClient

        client = MeasurementClient(
            world.vantage(VANTAGE), world.lab_vantage()
        )
        sample = result.blocked_urls[:20]
        run = client.run_list([Url.parse(u) for u in sample])
        assert all(test.blocked for test in run.tests)


class DescribeIpLiteralHosts:
    def test_each_ip_literal_host_has_its_own_budget(self, mini_world):
        engine = DiscoveryEngine(
            mini_world,
            "testnet",
            config=DiscoveryConfig(per_domain_budget=1, max_rounds=1),
            index=SearchIndex(),
        )
        seeds = ["http://10.0.0.1/", "http://192.168.0.1/"]
        result = engine.run(seeds)
        assert [c.url for c in result.candidates] == seeds

    def test_non_ascii_digit_host_does_not_abort_the_crawl(self, mini_world):
        engine = DiscoveryEngine(mini_world, "testnet", index=SearchIndex())
        result = engine.run(["http://1.2.3.\u00b2/"])
        assert result.converged
        assert [c.url for c in result.candidates] == ["http://1.2.3.\u00b2/"]


class DescribeCoverage:
    def test_discovery_beats_static_lists(self, result, baseline):
        report = CoverageReport.evaluate(result, baseline)
        assert report.discovered_blocked >= 2 * report.static_blocked
        assert report.gain_ratio >= 2.0
        assert "blocked" in report.describe()

    def test_new_urls_exclude_baseline(self, result, baseline):
        report = CoverageReport.evaluate(result, baseline)
        assert set(report.new_urls).isdisjoint(baseline)
        assert len(report.new_urls) == (
            report.discovered_blocked - report.overlap
        )