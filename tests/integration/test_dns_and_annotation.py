"""Integration tests for DNS-level censorship and proxy annotation."""

from __future__ import annotations

import pytest

from repro.measure.client import MeasurementClient
from repro.measure.verdict import Verdict
from repro.middlebox.deploy import deploy
from repro.net.fetch import FetchOutcome
from repro.net.http import redirect_response
from repro.net.url import Url
from repro.products.bluecoat import make_bluecoat
from repro.world.faults import FaultPlan, InjectedDnsTimeout
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

    @pytest.fixture()
    def tampered_world(self, mini_world):
        """testnet refuses daily-news and points free-proxy at adult-site,
        whose /to-refused and /to-poisoned pages redirect to the two."""
        origin = mini_world.websites["adult-site.example.com"]
        isp = mini_world.isps["testnet"]
        isp.dns_refused.append("daily-news.example.com")
        isp.dns_poisoned["free-proxy.example.com"] = origin.ip
        origin.add_page(
            "/to-refused", redirect_response("http://daily-news.example.com/")
        )
        origin.add_page(
            "/to-poisoned", redirect_response("http://free-proxy.example.com/")
        )
        return mini_world

    def test_injected_dns_fault_precedes_refused_and_poisoned(
        self, tampered_world
    ):
        """A chaos plan's DNS fault fires before the ISP's own tampering.

        Neither name may come back as NXDOMAIN or land on the liar host:
        the injected timeout is infrastructure noise for the retry layer.
        """
        tampered_world.install_faults(FaultPlan(seed=1, dns_timeout_rate=1.0))
        vantage = tampered_world.vantage("testnet")
        for name in ("daily-news.example.com", "free-proxy.example.com"):
            with pytest.raises(InjectedDnsTimeout):
                vantage.fetch(Url.parse(f"http://{name}/"))

    def test_injected_dns_fault_precedes_tampering_on_redirect(
        self, tampered_world
    ):
        """The same order for a redirect target.

        ``World.fetch`` rolls the first hop's DNS fault before resolving
        it, so only a redirect target reaches the order inside
        ``World._resolve``.
        """
        plan = FaultPlan(seed=4, dns_timeout_rate=0.5)
        # Seed 4 spares the origin's name, so each fault is the target's.
        assert plan.dns_fault("testnet", "adult-site.example.com") is None
        tampered_world.install_faults(plan)
        vantage = tampered_world.vantage("testnet")
        for path in ("/to-refused", "/to-poisoned"):
            with pytest.raises(InjectedDnsTimeout):
                vantage.fetch(Url.parse(f"http://adult-site.example.com{path}"))


    def test_one_dns_fault_roll_per_resolution(self, tampered_world):
        """A fetch rolls the DNS fault once for its own host and once
        for each redirect target, never twice for one resolution."""
        rolls = []

        class CountingPlan(FaultPlan):
            def dns_fault(self, vantage, hostname):
                rolls.append(hostname)
                return super().dns_fault(vantage, hostname)

        # Active through a banner fault, which no fetch consults.
        tampered_world.install_faults(CountingPlan(garble_rate=1.0))
        vantage = tampered_world.vantage("testnet")
        vantage.fetch(Url.parse("http://adult-site.example.com/"))
        assert rolls == ["adult-site.example.com"]
        rolls.clear()
        vantage.fetch(Url.parse("http://adult-site.example.com/to-poisoned"))
        assert rolls == ["adult-site.example.com", "free-proxy.example.com"]


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
