"""Unit tests for the dual field/lab measurement client."""

from __future__ import annotations

import time

import pytest

from repro.exec.executor import Executor
from repro.measure.client import MeasurementClient
from repro.measure.testlists import build_global_list
from repro.middlebox.deploy import deploy
from repro.net.url import Url
from repro.products.smartfilter import make_smartfilter
from repro.world.rng import derive_rng
from repro.world.scenario import build_scenario

from tests.conftest import make_content_oracle


@pytest.fixture()
def filtered_world(mini_world):
    product = make_smartfilter(
        make_content_oracle(mini_world), derive_rng(1, "mc")
    )
    deploy(mini_world, mini_world.isps["testnet"], product, ["Anonymizers"])
    product.database.add(
        "free-proxy.example.com",
        product.taxonomy.by_name("Anonymizers"),
        mini_world.now,
    )
    return mini_world


def test_non_ascii_digit_ip_host_is_probed_not_raised(filtered_world):
    client = MeasurementClient(
        filtered_world.vantage("testnet"), filtered_world.lab_vantage()
    )
    run = client.run_list([Url.parse("http://1.2.3.\u00b2/")])
    assert not run.tests[0].blocked


class DescribeClientConstruction:
    def test_rejects_lab_as_field(self, filtered_world):
        with pytest.raises(ValueError):
            MeasurementClient(
                filtered_world.lab_vantage(), filtered_world.lab_vantage()
            )

    def test_rejects_field_as_lab(self, filtered_world):
        with pytest.raises(ValueError):
            MeasurementClient(
                filtered_world.vantage("testnet"),
                filtered_world.vantage("testnet"),
            )


class DescribeTesting:
    @pytest.fixture()
    def client(self, filtered_world):
        return MeasurementClient(
            filtered_world.vantage("testnet"), filtered_world.lab_vantage()
        )

    def test_blocked_url(self, client):
        test = client.test_url(Url.parse("http://free-proxy.example.com/"))
        assert test.blocked
        assert not test.accessible
        assert test.vendor == "McAfee SmartFilter"

    def test_accessible_url(self, client):
        test = client.test_url(Url.parse("http://daily-news.example.com/"))
        assert test.accessible
        assert test.vendor is None

    def test_run_list_aggregation(self, client):
        run = client.run_list(
            [
                Url.parse("http://free-proxy.example.com/"),
                Url.parse("http://daily-news.example.com/"),
                Url.parse("http://adult-site.example.com/"),
            ]
        )
        assert len(run) == 3
        assert run.blocked_count() == 1
        assert len(run.accessible_tests()) == 2
        assert run.vendors_seen() == {"McAfee SmartFilter": 1}

    def test_measured_at_timestamp(self, client, filtered_world):
        test = client.test_url(Url.parse("http://daily-news.example.com/"))
        assert test.measured_at == filtered_world.now


class DescribeFanOut:
    def test_workers_overlap_link_latency(self):
        """Four workers hide the per-URL link wait behind each other,
        and the verdicts do not depend on the worker count."""
        world = build_scenario().world
        urls = build_global_list(world).urls()[:16]

        def timed_run(workers):
            client = MeasurementClient(
                world.vantage("etisalat"),
                world.lab_vantage(),
                executor=Executor(workers=workers),
                link_latency=0.02,
            )
            started = time.perf_counter()
            run = client.run_list(urls)
            elapsed = time.perf_counter() - started
            return [(t.url, t.comparison.verdict) for t in run.tests], elapsed

        sequential, sequential_seconds = timed_run(1)
        parallel, parallel_seconds = timed_run(4)
        assert parallel == sequential
        assert parallel_seconds < sequential_seconds / 2
