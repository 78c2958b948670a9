"""Unit tests for World routing, registries, and vantages."""

from __future__ import annotations

import pytest

from repro.net.fetch import FetchOutcome
from repro.net.http import HttpRequest, ok_response, redirect_response
from repro.net.ip import Ipv4Address, Ipv4Prefix
from repro.net.url import Url
from repro.world.content import ContentClass
from repro.world.entities import (
    Host,
    InterceptAction,
    InterceptKind,
    OrgKind,
)

from tests.conftest import make_mini_world


class DescribeRegistries:
    def test_duplicate_as_rejected(self, mini_world):
        with pytest.raises(ValueError):
            mini_world.add_autonomous_system(
                65001, "DUP", "Dup", OrgKind.ISP,
                mini_world.country("tl"), [Ipv4Prefix.parse("20.9.0.0/16")],
            )

    def test_duplicate_isp_rejected(self, mini_world):
        with pytest.raises(ValueError):
            mini_world.add_isp("testnet", mini_world.autonomous_systems[65001])

    def test_duplicate_website_rejected(self, mini_world):
        with pytest.raises(ValueError):
            mini_world.register_website(
                "daily-news.example.com", ContentClass.NEWS, 65002
            )

    def test_allocate_ip_requires_known_asn(self, mini_world):
        with pytest.raises(KeyError):
            mini_world.allocate_ip(65999)

    def test_owner_of(self, mini_world):
        site = mini_world.websites["daily-news.example.com"]
        owner = mini_world.owner_of(site.ip)
        assert owner is not None and owner.asn == 65002
        assert mini_world.country_of(site.ip).code == "ca"

    def test_unregister_website_clears_dns_and_host(self, mini_world):
        site = mini_world.websites["daily-news.example.com"]
        mini_world.unregister_website("daily-news.example.com")
        assert "daily-news.example.com" not in mini_world.zone
        assert mini_world.host_at(site.ip) is None

    def test_advance_days_delegates_to_clock(self, mini_world):
        before = mini_world.now
        mini_world.advance_days(2)
        assert (mini_world.now - before) == 2 * 24 * 60


class DescribeFetchRouting:
    def test_lab_fetch_reaches_origin(self, mini_world):
        result = mini_world.lab_vantage().fetch(
            Url.parse("http://daily-news.example.com/")
        )
        assert result.ok and result.status == 200

    def test_unknown_name_is_dns_failure(self, mini_world):
        result = mini_world.lab_vantage().fetch(Url.parse("http://nope.example/"))
        assert result.outcome is FetchOutcome.DNS_FAILURE

    def test_unrouted_ip_is_unreachable(self, mini_world):
        result = mini_world.lab_vantage().fetch(Url.parse("http://203.0.113.1/"))
        assert result.outcome is FetchOutcome.UNREACHABLE

    @pytest.mark.parametrize("last", ["\u00b2", "\u0663"])
    def test_non_ascii_digit_host_is_a_name(self, mini_world, last):
        # Not an IP literal: int() rejects "²" and reads "٣" as 3.
        url = Url.parse(f"http://1.2.3.{last}/")
        result = mini_world.lab_vantage().fetch(url)
        assert result.outcome is FetchOutcome.DNS_FAILURE

    def test_ip_literal_fetch(self, mini_world):
        site = mini_world.websites["daily-news.example.com"]
        result = mini_world.lab_vantage().fetch(Url.parse(f"http://{site.ip}/"))
        assert result.ok

    def test_internal_only_host_blocked_externally(self, mini_world):
        ip = mini_world.allocate_ip(65001)
        host = Host(ip=ip, hostname="box.testnet.internal", internal_only=True)
        host.add_service(80, lambda _r: ok_response("internal", ""))
        mini_world.add_host(host)
        outside = mini_world.lab_vantage().fetch(Url.parse(f"http://{ip}/"))
        assert outside.outcome is FetchOutcome.UNREACHABLE
        inside = mini_world.vantage("testnet").fetch(Url.parse(f"http://{ip}/"))
        assert inside.ok

    def test_redirect_following(self, mini_world):
        ip = mini_world.allocate_ip(65002)
        host = Host(ip=ip, hostname="redirector.example.com")
        host.add_service(
            80,
            lambda _r: redirect_response("http://daily-news.example.com/"),
        )
        mini_world.add_host(host)
        result = mini_world.lab_vantage().fetch(
            Url.parse("http://redirector.example.com/")
        )
        assert result.ok
        assert len(result.hops) == 2
        assert result.hops[1].request.url.host == "daily-news.example.com"

    def test_redirect_not_followed_when_disabled(self, mini_world):
        ip = mini_world.allocate_ip(65002)
        host = Host(ip=ip, hostname="r2.example.com")
        host.add_service(
            80, lambda _r: redirect_response("http://daily-news.example.com/")
        )
        mini_world.add_host(host)
        result = mini_world.lab_vantage().fetch(
            Url.parse("http://r2.example.com/"), follow_redirects=False
        )
        assert result.status == 302
        assert len(result.hops) == 1

    def test_relative_redirect_resolved(self, mini_world):
        site = mini_world.websites["daily-news.example.com"]
        site.add_page("/old", redirect_response("/"))
        result = mini_world.lab_vantage().fetch(
            Url.parse("http://daily-news.example.com/old")
        )
        assert result.ok
        assert result.hops[-1].request.url.path == "/"

    def test_redirect_loop_detected(self, mini_world):
        ip = mini_world.allocate_ip(65002)
        host = Host(ip=ip, hostname="loop.example.com")
        host.add_service(
            80, lambda _r: redirect_response("http://loop.example.com/")
        )
        mini_world.add_host(host)
        result = mini_world.lab_vantage().fetch(Url.parse("http://loop.example.com/"))
        assert result.outcome is FetchOutcome.TOO_MANY_REDIRECTS

    def test_device_reset_and_drop(self, mini_world):
        class Resetter:
            def intercept(self, request, now):
                if request.url.host == "daily-news.example.com":
                    return InterceptAction(InterceptKind.RESET)
                return InterceptAction.passthrough()

        class Dropper:
            def intercept(self, request, now):
                if request.url.host == "adult-site.example.com":
                    return InterceptAction(InterceptKind.DROP)
                return InterceptAction.passthrough()

        isp = mini_world.isps["testnet"]
        isp.add_device(Resetter())
        isp.add_device(Dropper())
        vantage = mini_world.vantage("testnet")
        reset = vantage.fetch(Url.parse("http://daily-news.example.com/"))
        dropped = vantage.fetch(Url.parse("http://adult-site.example.com/"))
        passed = vantage.fetch(Url.parse("http://free-proxy.example.com/"))
        assert reset.outcome is FetchOutcome.TCP_RESET
        assert dropped.outcome is FetchOutcome.TIMEOUT
        assert passed.ok

    def test_devices_see_redirect_hops(self, mini_world):
        seen = []

        class Recorder:
            def intercept(self, request, now):
                seen.append(request.url.host)
                return InterceptAction.passthrough()

        ip = mini_world.allocate_ip(65002)
        host = Host(ip=ip, hostname="hopper.example.com")
        host.add_service(
            80, lambda _r: redirect_response("http://daily-news.example.com/")
        )
        mini_world.add_host(host)
        mini_world.isps["testnet"].add_device(Recorder())
        mini_world.vantage("testnet").fetch(Url.parse("http://hopper.example.com/"))
        assert seen == ["hopper.example.com", "daily-news.example.com"]


class DescribeVantages:
    def test_vantage_identity(self, mini_world):
        field = mini_world.vantage("testnet")
        lab = mini_world.lab_vantage()
        assert not field.is_lab
        assert lab.is_lab
        assert "testnet" in field.location
        assert lab.location == "lab"

    def test_vantage_client_ip_in_isp_prefix(self, mini_world):
        vantage = mini_world.vantage("testnet", client_index=25)
        assert vantage.client_ip in mini_world.isps["testnet"].client_prefix

    def test_determinism_same_seed(self):
        a = make_mini_world(seed=11)
        b = make_mini_world(seed=11)
        assert sorted(a.websites) == sorted(b.websites)
        site = sorted(a.websites)[0]
        assert a.websites[site].ip == b.websites[site].ip
