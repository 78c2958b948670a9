"""Unit tests for the §3 identification pipeline on a small world."""

from __future__ import annotations

import pytest

from repro.core.identify import IdentificationPipeline
from repro.geo.cymru import WhoisService
from repro.geo.maxmind import GeoDatabase
from repro.middlebox.deploy import deploy
from repro.products.netsweeper import make_netsweeper
from repro.products.smartfilter import make_smartfilter
from repro.scan.banner import scan_world
from repro.scan.shodan import ShodanIndex
from repro.scan.whatweb import WhatWebEngine, world_probe
from repro.world.entities import OrgKind

from tests.conftest import make_content_oracle, make_mini_world
from repro.world.rng import derive_rng


@pytest.fixture()
def small_deployment():
    world = make_mini_world()
    oracle = make_content_oracle(world)
    netsweeper = make_netsweeper(oracle, derive_rng(1, "id-ns"))
    smartfilter = make_smartfilter(oracle, derive_rng(1, "id-sf"))
    visible = deploy(
        world, world.isps["testnet"], netsweeper, [], name="visible-ns"
    )
    hidden = deploy(
        world, world.isps["testnet"], smartfilter, [],
        name="hidden-sf", externally_visible=False,
    )
    return world, visible, hidden


def make_pipeline(world, cctlds=("tl", "ca")):
    shodan = ShodanIndex(scan_world(world))
    whatweb = WhatWebEngine(world_probe(world))
    geo = GeoDatabase.build_from_world(world)
    whois = WhoisService.build_from_world(world)
    return IdentificationPipeline(shodan, whatweb, geo, whois, cctlds=cctlds)


class DescribePipeline:
    def test_finds_visible_installation(self, small_deployment):
        world, visible, _hidden = small_deployment
        report = make_pipeline(world).run()
        netsweeper_installs = report.by_product("Netsweeper")
        assert len(netsweeper_installs) == 1
        installation = netsweeper_installs[0]
        assert installation.ip == visible.box_ip
        assert installation.country_code == "tl"
        assert installation.asn == 65001
        assert installation.org_kind is OrgKind.NATIONAL_ISP
        assert installation.evidence

    def test_misses_hidden_installation(self, small_deployment):
        world, _visible, _hidden = small_deployment
        report = make_pipeline(world).run()
        assert report.by_product("McAfee SmartFilter") == []

    def test_locate_then_validate_stages(self, small_deployment):
        world, visible, _hidden = small_deployment
        pipeline = make_pipeline(world)
        candidates = pipeline.locate(["Netsweeper"])
        assert any(c.ip == visible.box_ip for c in candidates)
        report = pipeline.validate(candidates)
        assert len(report.installations) == 1
        assert report.queries_issued > 0

    def test_countries_aggregation(self, small_deployment):
        world, _visible, _hidden = small_deployment
        report = make_pipeline(world).run()
        assert report.countries("Netsweeper") == {"tl"}
        assert report.countries("Websense") == set()
        assert report.country_map()["Netsweeper"] == {"tl"}

    def test_installations_in(self, small_deployment):
        world, _visible, _hidden = small_deployment
        report = make_pipeline(world).run()
        assert len(report.installations_in("tl")) == 1
        assert report.installations_in("ca") == []

    def test_precision_with_no_candidates(self):
        world = make_mini_world()
        report = make_pipeline(world).run()
        assert report.installations == []
        assert report.precision == 0.0

    def test_geo_error_changes_reported_country(self, small_deployment):
        world, visible, _hidden = small_deployment
        shodan = ShodanIndex(scan_world(world))
        whatweb = WhatWebEngine(world_probe(world))
        # A stale database that places every prefix in Canada.
        geo = GeoDatabase()
        for autonomous_system in world.autonomous_systems.values():
            for prefix in autonomous_system.prefixes:
                geo.add(prefix, "ca")
        whois = WhoisService.build_from_world(world)
        pipeline = IdentificationPipeline(
            shodan, whatweb, geo, whois, cctlds=("tl", "ca")
        )
        report = pipeline.run()
        installation = report.by_product("Netsweeper")[0]
        # whois is authoritative; geo is wrong — the mismatch is visible.
        assert installation.asn == 65001
        assert installation.country_code == "ca"
