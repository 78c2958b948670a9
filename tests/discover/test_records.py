"""Discovery epochs: record building, store round trip, query surface."""

from __future__ import annotations

import pytest

from repro.discover import (
    CoverageReport,
    DiscoveryConfig,
    DiscoveryEngine,
    static_baseline,
)
from repro.store import RECORD_KINDS, ResultsStore, discovery_epoch
from repro.world.scenario import ScenarioConfig, build_scenario


@pytest.fixture(scope="module")
def run():
    scenario = build_scenario(config=ScenarioConfig(population_size=160))
    world = scenario.world
    start = world.now.minutes
    baseline = static_baseline(world, "etisalat")
    config = DiscoveryConfig(max_rounds=6, max_probes_per_round=60)
    result = DiscoveryEngine(world, "etisalat", config=config).run(
        baseline[:3]
    )
    coverage = CoverageReport.evaluate(result, baseline)
    return world, result, coverage, (start, world.now.minutes)


def _epoch(run, partial=()):
    world, result, coverage, window = run
    return discovery_epoch(
        result,
        world=world,
        window=window,
        population=160,
        coverage=coverage,
        partial=partial,
    )


class DescribeDiscoveryEpoch:
    def test_kinds_are_registered(self):
        assert "discovery_rounds" in RECORD_KINDS
        assert "discovery_candidates" in RECORD_KINDS

    def test_summary_row_leads_the_rounds(self, run):
        _world, result, coverage, _window = run
        epoch = _epoch(run)
        rows = epoch.records["discovery_rounds"]
        assert len(rows) == len(result.rounds) + 1
        summary = rows[0]
        assert summary["round"] == 0
        assert summary["converged"] == result.converged
        assert summary["blocked_urls"] == result.blocked_urls
        assert summary["gain_ratio"] == round(coverage.gain_ratio, 4)

    def test_rows_carry_index_geography(self, run, tmp_path):
        world, _result, _coverage, _window = run
        epoch = _epoch(run)
        isp = world.isps["etisalat"]
        for kind in ("discovery_rounds", "discovery_candidates"):
            for row in epoch.records[kind]:
                assert row["country"] == isp.country.code
                assert row["asn"] == isp.asn
        store = ResultsStore(tmp_path)
        keys = store.manifest(store.commit(epoch).epoch_id).keys
        assert isp.country.code in keys["country"]
        assert "etisalat" in keys["isp"]

    def test_candidate_rows_match_result(self, run):
        _world, result, _coverage, _window = run
        rows = _epoch(run).records["discovery_candidates"]
        assert len(rows) == len(result.candidates)
        by_url = {row["url"]: row for row in rows}
        for candidate in result.candidates:
            row = by_url[candidate.url]
            assert row["verdict"] == candidate.verdict
            assert row["blocked"] == candidate.blocked
            assert row["source"] == candidate.source

    def test_store_round_trip_and_partial_flag(self, run, tmp_path):
        store = ResultsStore(tmp_path / "store")
        commit = store.commit(_epoch(run, partial=("discovery_rounds",)))
        assert commit.created
        manifest = store.manifest(commit.epoch_id)
        assert "discovery_rounds" in manifest.segments
        assert manifest.partial == ("discovery_rounds",)
        rows = store.records(commit.epoch_id, "discovery_candidates")
        assert rows == _epoch(run).records["discovery_candidates"]
        # Identical content commits idempotently.
        again = store.commit(_epoch(run, partial=("discovery_rounds",)))
        assert not again.created
        assert again.epoch_id == commit.epoch_id