"""/discover/* serving surface: routing, ETag/304, filters, 404s."""

from __future__ import annotations

import json

import pytest

from repro.discover import (
    CoverageReport,
    DiscoveryConfig,
    DiscoveryEngine,
    static_baseline,
)
from repro.serve import StoreApi
from repro.store import ResultsStore, discovery_epoch
from repro.world.scenario import ScenarioConfig, build_scenario


def _json(response):
    return json.loads(response.body.decode("utf-8"))


@pytest.fixture(scope="module")
def discovery_store(tmp_path_factory):
    scenario = build_scenario(config=ScenarioConfig(population_size=160))
    world = scenario.world
    start = world.now.minutes
    baseline = static_baseline(world, "etisalat")
    config = DiscoveryConfig(max_rounds=5, max_probes_per_round=60)
    result = DiscoveryEngine(world, "etisalat", config=config).run(
        baseline[:3]
    )
    epoch = discovery_epoch(
        result,
        world=world,
        window=(start, world.now.minutes),
        population=160,
        coverage=CoverageReport.evaluate(result, baseline),
    )
    store = ResultsStore(tmp_path_factory.mktemp("discover-store"))
    commit = store.commit(epoch)
    return store, commit.epoch_id, result


@pytest.fixture()
def api(discovery_store):
    store, _epoch_id, _result = discovery_store
    return StoreApi(store)


class DescribeDiscoverEndpoints:
    def test_rounds_serves_trace(self, api, discovery_store):
        _store, epoch_id, result = discovery_store
        response = api.handle("/discover/rounds")
        assert response.status == 200
        document = _json(response)
        assert document["epoch"] == epoch_id
        assert document["kind"] == "discovery_rounds"
        assert document["total"] == len(result.rounds) + 1
        summary = document["items"][0]
        assert summary["round"] == 0
        assert summary["blocked_urls"] == result.blocked_urls

    def test_candidates_paginate(self, api, discovery_store):
        _store, _epoch_id, result = discovery_store
        response = api.handle("/discover/candidates?per_page=5&page=2")
        assert response.status == 200
        document = _json(response)
        assert document["total"] == len(result.candidates)
        assert len(document["items"]) == 5
        assert document["page"] == 2

    def test_etag_revalidation_304(self, api):
        first = api.handle("/discover/rounds")
        assert first.etag
        again = api.handle("/discover/rounds", if_none_match=first.etag)
        assert again.status == 304

    def test_explicit_epoch_param(self, api, discovery_store):
        _store, epoch_id, _result = discovery_store
        response = api.handle(f"/discover/rounds?epoch={epoch_id[:10]}")
        assert response.status == 200
        assert _json(response)["epoch"] == epoch_id

    def test_min_confidence_filter(self, api, discovery_store):
        _store, _epoch_id, result = discovery_store
        response = api.handle("/discover/candidates?min_confidence=0.5")
        assert response.status == 200
        assert _json(response)["total"] <= len(result.candidates)
        bad = api.handle("/discover/candidates?min_confidence=nope")
        assert bad.status == 400

    def test_unknown_subpaths_404(self, api):
        assert api.handle("/discover").status == 404
        assert api.handle("/discover/nope").status == 404
        assert api.handle("/discover/rounds/extra").status == 404

    def test_store_without_discovery_epoch_404(self, tmp_path):
        empty = StoreApi(ResultsStore(tmp_path / "empty"))
        response = empty.handle("/discover/rounds")
        assert response.status == 404

    def test_records_endpoint_serves_discovery_kinds(
        self, api, discovery_store
    ):
        _store, epoch_id, result = discovery_store
        response = api.handle(
            f"/epochs/{epoch_id}/records/discovery_candidates"
        )
        assert response.status == 200
        assert _json(response)["total"] == len(result.candidates)