"""Integration tests for DNS-level censorship and proxy annotation."""

from __future__ import annotations

import pytest

from repro.measure.client import MeasurementClient
from repro.measure.verdict import Verdict
from repro.middlebox.deploy import deploy
from repro.net.fetch import FetchOutcome
from repro.net.url import Url
from repro.products.bluecoat import make_bluecoat
from repro.world.rng import derive_rng

from tests.conftest import make_content_oracle, make_mini_world


class DescribeDnsCensorship:
    def test_refused_name_fails_in_field_only(self, mini_world):
        isp = mini_world.isps["testnet"]
        isp.dns_refused.append("daily-news.example.com")
        url = Url.parse("http://daily-news.example.com/")
        field = mini_world.vantage("testnet").fetch(url)
        lab = mini_world.lab_vantage().fetch(url)
        assert field.outcome is FetchOutcome.DNS_FAILURE
        assert lab.ok

    def test_comparator_classifies_dns_tampering(self, mini_world):
        isp = mini_world.isps["testnet"]
        isp.dns_refused.append("daily-news.example.com")
        client = MeasurementClient(
            mini_world.vantage("testnet"), mini_world.lab_vantage()
        )
        test = client.test_url(Url.parse("http://daily-news.example.com/"))
        assert test.comparison.verdict is Verdict.DNS_TAMPERED
        assert test.blocked

    def test_poisoned_name_lands_on_liar_host(self, mini_world):
        site = mini_world.websites["adult-site.example.com"]
        isp = mini_world.isps["testnet"]
        isp.dns_poisoned["daily-news.example.com"] = site.ip
        result = mini_world.vantage("testnet").fetch(
            Url.parse("http://daily-news.example.com/")
        )
        assert result.ok
        # Served the other site's content — the comparator sees divergence.
        client = MeasurementClient(
            mini_world.vantage("testnet"), mini_world.lab_vantage()
        )
        test = client.test_url(Url.parse("http://daily-news.example.com/"))
        assert test.blocked


class DescribeProxyAnnotation:
    @pytest.fixture()
    def proxied_world(self, mini_world):
        product = make_bluecoat(
            make_content_oracle(mini_world), derive_rng(1, "an-bc")
        )
        box = deploy(mini_world, mini_world.isps["testnet"], product, [])
        return mini_world, box

    def test_forwarded_responses_gain_via(self, proxied_world):
        world, _box = proxied_world
        result = world.vantage("testnet").fetch(
            Url.parse("http://daily-news.example.com/")
        )
        assert "ProxySG" in (result.response.headers.get("Via") or "")

    def test_lab_traffic_unannotated(self, proxied_world):
        world, _box = proxied_world
        result = world.lab_vantage().fetch(
            Url.parse("http://daily-news.example.com/")
        )
        assert result.response.headers.get("Via") is None

    def test_annotation_does_not_trip_blockpage_detector(self, proxied_world):
        """Generic proxy residue must never read as censorship."""
        world, _box = proxied_world
        client = MeasurementClient(world.vantage("testnet"), world.lab_vantage())
        test = client.test_url(Url.parse("http://daily-news.example.com/"))
        assert test.accessible

    def test_disabled_box_stops_annotating(self, proxied_world):
        world, box = proxied_world
        box.enabled = False
        result = world.vantage("testnet").fetch(
            Url.parse("http://daily-news.example.com/")
        )
        assert result.response.headers.get("Via") is None

    def test_masked_box_annotates_generically(self, proxied_world):
        world, box = proxied_world
        box.policy.block_page.strip_signature_headers = True
        result = world.vantage("testnet").fetch(
            Url.parse("http://daily-news.example.com/")
        )
        via = result.response.headers.get("Via")
        assert via == "1.1 gateway"
