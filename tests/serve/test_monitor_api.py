"""Serving the monitor status surface: /monitor/* routing, the
200/304/404 contract, and monitor-file-derived ETag semantics."""

from __future__ import annotations

import json

import pytest

from repro.monitor import (
    AlertConfig,
    MonitorConfig,
    MonitorService,
    MonitorTarget,
    ScheduleConfig,
    SupervisorConfig,
)
from repro.serve import StoreApi
from repro.store import ResultsStore

from tests.monitor.conftest import (
    TARGET_KEY,
    mini_config,
    mini_scenario,
)


def _json(response):
    return json.loads(response.body.decode("utf-8"))


def run_monitor(tmp_path, rounds=3, before_round=None):
    service = MonitorService(
        tmp_path / "mon",
        tmp_path / "store",
        scenario_factory=lambda: mini_scenario(7),
        targets=[MonitorTarget(mini_config())],
        config=MonitorConfig(
            schedule=ScheduleConfig(
                base_interval_days=10.0,
                min_interval_days=2.0,
                max_interval_days=40.0,
            ),
            supervisor=SupervisorConfig(max_retries=1),
            alerts=AlertConfig(),
        ),
        before_round=before_round,
    )
    service.run(rounds=rounds)
    return service


@pytest.fixture()
def monitored_api(tmp_path):
    run_monitor(tmp_path)
    store = ResultsStore(tmp_path / "store")
    return StoreApi(store, monitor_dir=tmp_path / "mon"), tmp_path


class DescribeRouting:
    def test_status_endpoint(self, monitored_api):
        api, _ = monitored_api
        response = api.handle("/monitor/status")
        assert response.status == 200
        document = _json(response)
        assert document["state"] == "FINISHED"
        assert document["rounds"] == 3
        assert "targets" not in document  # /monitor/targets owns those

    def test_targets_endpoint_paginated(self, monitored_api):
        api, _ = monitored_api
        document = _json(api.handle("/monitor/targets"))
        assert document["total"] == 1
        assert document["items"][0]["key"] == TARGET_KEY
        assert document["state"] == "FINISHED"

    def test_alerts_endpoint(self, monitored_api):
        api, _ = monitored_api
        document = _json(api.handle("/monitor/alerts"))
        assert document["total"] == 0 and document["items"] == []

    def test_unknown_monitor_endpoint_404(self, monitored_api):
        api, _ = monitored_api
        assert api.handle("/monitor").status == 404
        assert api.handle("/monitor/nope").status == 404
        assert api.handle("/monitor/status/extra").status == 404

    def test_404_when_monitor_not_enabled(self, monitored_api):
        api, tmp_path = monitored_api
        plain = StoreApi(ResultsStore(tmp_path / "store"))
        response = plain.handle("/monitor/status")
        assert response.status == 404
        assert "not enabled" in _json(response)["error"]

    def test_404_before_monitor_ever_started(self, tmp_path):
        (tmp_path / "store").mkdir()
        (tmp_path / "empty-mon").mkdir()
        api = StoreApi(
            ResultsStore(tmp_path / "store"),
            monitor_dir=tmp_path / "empty-mon",
        )
        for target in (
            "/monitor/status",
            "/monitor/targets",
            "/monitor/alerts",
        ):
            assert api.handle(target).status == 404


class DescribeEtagSemantics:
    def test_strong_etag_and_304(self, monitored_api):
        api, _ = monitored_api
        first = api.handle("/monitor/status")
        assert first.etag is not None
        revalidated = api.handle("/monitor/status", if_none_match=first.etag)
        assert revalidated.status == 304 and revalidated.body == b""

    def test_etags_differ_per_resource(self, monitored_api):
        api, _ = monitored_api
        etags = {
            api.handle(target).etag
            for target in (
                "/monitor/status",
                "/monitor/targets",
                "/monitor/alerts",
            )
        }
        assert len(etags) == 3

    def test_monitor_progress_invalidates_etag(self, tmp_path):
        run_monitor(tmp_path, rounds=2)
        api = StoreApi(
            ResultsStore(tmp_path / "store"), monitor_dir=tmp_path / "mon"
        )
        before = api.handle("/monitor/status")
        # The monitor advances (resume adds rounds to the journal).
        service = MonitorService(
            tmp_path / "mon",
            tmp_path / "store",
            scenario_factory=lambda: mini_scenario(7),
            targets=[MonitorTarget(mini_config())],
            config=MonitorConfig(
                schedule=ScheduleConfig(
                    base_interval_days=10.0,
                    min_interval_days=2.0,
                    max_interval_days=40.0,
                ),
                supervisor=SupervisorConfig(max_retries=1),
                alerts=AlertConfig(),
            ),
        )
        service.run(rounds=4, resume=True)
        after = api.handle("/monitor/status", if_none_match=before.etag)
        assert after.status == 200  # stale ETag no longer matches
        assert after.etag != before.etag
        assert _json(after)["rounds"] == 4

    def test_monitor_etag_independent_of_store_state(self, monitored_api):
        api, _ = monitored_api
        # Same store digest feeds /epochs; the monitor key must differ.
        assert api.handle("/monitor/status").etag != api.handle("/epochs").etag
