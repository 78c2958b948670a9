"""Unit tests for the WhatWeb engine and Table 2 signatures."""

from __future__ import annotations

import pytest

from repro.middlebox.deploy import deploy, deploy_stacked
from repro.net.http import Headers, HttpResponse, html_page
from repro.products import Evidence, ProbeObservation, default_registry
from repro.products.bluecoat import bluecoat_signature, make_bluecoat
from repro.products.netsweeper import make_netsweeper, netsweeper_signature
from repro.products.smartfilter import make_smartfilter, smartfilter_signature
from repro.products.websense import make_websense, websense_signature
from repro.scan.whatweb import WhatWebEngine, world_probe
from repro.world.rng import derive_rng

from tests.conftest import make_content_oracle


def _obs(port=80, path="/", status=200, headers=None, body=""):
    return ProbeObservation(
        port, path, HttpResponse(status, Headers(headers or []), body)
    )


class DescribeSignatureRules:
    def test_bluecoat_matches_proxysg_server(self):
        assert bluecoat_signature([_obs(headers=[("Server", "Blue Coat ProxySG")])])

    def test_bluecoat_matches_cfauth_location(self):
        obs = _obs(
            status=302,
            headers=[("Location", "http://www.cfauth.com/?cfru=x")],
        )
        assert bluecoat_signature([obs])

    def test_bluecoat_ignores_squid(self):
        assert not bluecoat_signature(
            [_obs(headers=[("Server", "squid/3.1"), ("Via", "1.1 cache")])]
        )

    def test_smartfilter_matches_via_proxy_header(self):
        assert smartfilter_signature([_obs(headers=[("Via-Proxy", "MWG 7")])])

    def test_smartfilter_matches_title(self):
        obs = _obs(body=html_page("McAfee Web Gateway", ""))
        assert smartfilter_signature([obs])

    def test_smartfilter_ignores_blog_about_blocking(self):
        obs = _obs(body=html_page("What is a URL Blocked page?", "mcafee?"))
        assert not smartfilter_signature([obs])

    def test_netsweeper_matches_branding(self):
        obs = _obs(body=html_page("Netsweeper WebAdmin", ""))
        assert netsweeper_signature([obs])

    def test_netsweeper_requires_deny_path_not_bare_webadmin(self):
        bare = _obs(status=302, headers=[("Location", "/webadmin/")])
        assert not netsweeper_signature([bare])
        deny = _obs(
            status=302,
            headers=[("Location", "http://x:8080/webadmin/deny/index.php")],
        )
        assert netsweeper_signature([deny])

    def test_websense_matches_15871_ws_session(self):
        obs = _obs(
            status=302,
            headers=[("Location", "http://x:15871/cgi-bin/blockpage.cgi?ws-session=1")],
        )
        assert websense_signature([obs])

    def test_websense_requires_both_port_and_param(self):
        wrong_port = _obs(
            status=302,
            headers=[("Location", "http://x:1587/cgi?ws-session=1")],
        )
        assert not websense_signature([wrong_port])

    def test_none_observation_handled(self):
        missing = ProbeObservation(80, "/", None)
        for signature in (
            bluecoat_signature,
            smartfilter_signature,
            netsweeper_signature,
            websense_signature,
        ):
            assert signature([missing]) == []


class DescribeEngineAgainstWorld:
    @pytest.fixture()
    def engine(self, mini_world):
        return WhatWebEngine(world_probe(mini_world))

    def _deploy(self, world, factory, label, **kwargs):
        product = factory(make_content_oracle(world), derive_rng(1, label))
        return deploy(world, world.isps["testnet"], product, [], **kwargs)

    @pytest.mark.parametrize(
        "factory,label,vendor",
        [
            (make_bluecoat, "w-bc", "Blue Coat"),
            (make_smartfilter, "w-sf", "McAfee SmartFilter"),
            (make_netsweeper, "w-ns", "Netsweeper"),
            (make_websense, "w-ws", "Websense"),
        ],
    )
    def test_identifies_each_product(self, mini_world, engine, factory, label, vendor):
        box = self._deploy(mini_world, factory, label)
        report = engine.identify(box.box_ip)
        assert report.matched(vendor)
        match = next(m for m in report.matches if m.product == vendor)
        assert all(isinstance(e, Evidence) for e in match.evidence)

    def test_plain_website_matches_nothing(self, mini_world, engine):
        site = mini_world.websites["daily-news.example.com"]
        report = engine.identify(site.ip)
        assert report.matches == []

    def test_unreachable_ip_matches_nothing(self, mini_world, engine):
        from repro.net.ip import Ipv4Address

        report = engine.identify(Ipv4Address.parse("203.0.113.77"))
        assert report.matches == []
        assert all(obs.response is None for obs in report.observations)

    def test_stacked_box_matches_both(self, mini_world, engine):
        oracle = make_content_oracle(mini_world)
        bluecoat = make_bluecoat(oracle, derive_rng(1, "w-bc2"))
        smartfilter = make_smartfilter(oracle, derive_rng(1, "w-sf2"))
        box = deploy_stacked(
            mini_world, mini_world.isps["testnet"], bluecoat, smartfilter, []
        )
        report = engine.identify(box.box_ip)
        assert report.matched("Blue Coat")
        assert report.matched("McAfee SmartFilter")

    def test_custom_signature_registration(self, mini_world):
        signatures = dict(default_registry().whatweb_signatures())
        signatures["MyBox"] = (
            lambda observations: [Evidence("header", "X")]
            if any(
                o.response is not None and o.response.headers.get("Server") == "nginx"
                for o in observations
            )
            else []
        )
        engine = WhatWebEngine(world_probe(mini_world), signatures=signatures)
        site = mini_world.websites["daily-news.example.com"]
        report = engine.identify(site.ip)
        assert report.matched("MyBox")

    def test_probe_count_accumulates(self, mini_world, engine):
        site = mini_world.websites["daily-news.example.com"]
        before = engine.probe_count
        engine.identify(site.ip)
        assert engine.probe_count > before
