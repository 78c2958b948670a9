"""Tests for the §7 global confirmation survey."""

from __future__ import annotations

import pytest

from repro.core.identify import IdentificationReport, Installation
from repro.core.survey import GlobalSurvey, SurveyTarget
from repro.middlebox.deploy import deploy
from repro.net.ip import Ipv4Address
from repro.products.smartfilter import make_smartfilter
from repro.world.rng import derive_rng

from tests.conftest import make_content_oracle, make_mini_world


def build_world(blocked):
    world = make_mini_world()
    product = make_smartfilter(
        make_content_oracle(world), derive_rng(1, "sv-sf")
    )
    world.clock.on_tick(product.tick)
    deploy(world, world.isps["testnet"], product, blocked)
    return world, product


def identification_for(world, product_name="McAfee SmartFilter", asn=65001):
    report = IdentificationReport()
    report.installations = [
        Installation(
            Ipv4Address.parse("20.1.0.9"), product_name, "tl", asn,
            "TESTNET", "Testland Telecom", None,
        )
    ]
    return report


def run_survey(world, products):
    survey = GlobalSurvey(world, products, 65002)
    return survey.run(survey.plan(identification_for(world)))


class DescribePlanning:
    def test_plan_maps_asn_to_vantage(self):
        world, product = build_world(["Anonymizers"])
        survey = GlobalSurvey(world, {"McAfee SmartFilter": product}, 65002)
        targets = survey.plan(identification_for(world))
        assert targets == [SurveyTarget("McAfee SmartFilter", "testnet", 65001)]

    def test_plan_skips_unreachable_asns(self):
        world, product = build_world(["Anonymizers"])
        survey = GlobalSurvey(world, {"McAfee SmartFilter": product}, 65002)
        # 65002 is the hosting AS: no ISP, so no vantage point, owns it.
        assert survey.plan(identification_for(world, asn=65002)) == []

    def test_plan_deduplicates_pairs(self):
        world, product = build_world(["Anonymizers"])
        report = identification_for(world)
        report.installations = report.installations * 3
        survey = GlobalSurvey(world, {"McAfee SmartFilter": product}, 65002)
        assert len(survey.plan(report)) == 1


class DescribeLadder:
    def test_proxy_blocking_confirms_on_first_rung(self):
        world, product = build_world(["Anonymizers"])
        report = run_survey(world, {"McAfee SmartFilter": product})
        entry = report.entries[0]
        assert entry.confirmed
        assert len(entry.attempts) == 1
        assert entry.confirming_category == "Proxy Anonymizer"

    def test_porn_only_policy_needs_second_rung(self):
        """The Saudi lesson (§4.3) handled automatically."""
        world, product = build_world(["Pornography"])
        report = run_survey(world, {"McAfee SmartFilter": product})
        entry = report.entries[0]
        assert entry.confirmed
        assert len(entry.attempts) == 2
        assert not entry.attempts[0].confirmed
        assert entry.confirming_category == "Adult Images"

    def test_off_ladder_policy_not_confirmed(self):
        """§7's caveat: without knowing the blocked categories, a
        deployment blocking only off-ladder content is missed."""
        world, product = build_world(["Gambling"])
        report = run_survey(world, {"McAfee SmartFilter": product})
        entry = report.entries[0]
        assert not entry.confirmed
        assert len(entry.attempts) == 3  # the whole ladder was tried
        assert entry.confirming_category is None

    def test_unknown_product_skipped(self):
        world, product = build_world(["Anonymizers"])
        report = run_survey(world, {})
        assert report.entries == []


class DescribeReport:
    def test_aggregations(self):
        world, product = build_world(["Anonymizers"])
        report = run_survey(world, {"McAfee SmartFilter": product})
        assert report.confirmed_count() == 1
        assert report.confirmed_pairs() == [("McAfee SmartFilter", "testnet")]
        assert len(report.by_product("McAfee SmartFilter")) == 1
        assert any("CONFIRMED" in line for line in report.summary_lines())
