"""Failure-injection tests: the methodology degrades gracefully."""

from __future__ import annotations

import pytest

from repro.core.confirm import (
    ConfirmationConfig,
    ConfirmationStudy,
    DEFAULT_SUBMITTER,
)
from repro.core.scale import targeted_campaign
from repro.core.identify import IdentificationPipeline
from repro.geo.cymru import WhoisService
from repro.geo.maxmind import GeoDatabase
from repro.measure.client import MeasurementClient
from repro.measure.verdict import Verdict
from repro.middlebox.deploy import deploy
from repro.net.url import Url
from repro.products.smartfilter import make_smartfilter
from repro.products.submission import ReviewPolicy, SubmissionStatus
from repro.scan.banner import scan_world
from repro.scan.shodan import ShodanIndex
from repro.scan.whatweb import WhatWebEngine, world_probe
from repro.world.content import ContentClass
from repro.world.rng import derive_rng

from tests.conftest import make_content_oracle, make_mini_world


def filtered_world(accept_rate=1.0):
    world = make_mini_world()
    product = make_smartfilter(
        make_content_oracle(world),
        derive_rng(1, "fi-sf"),
        review_policy=ReviewPolicy(3.0, 4.5, accept_rate),
    )
    world.clock.on_tick(product.tick)
    deploy(world, world.isps["testnet"], product, ["Anonymizers"])
    return world, product


def proxy_config(**overrides):
    defaults = dict(
        product_name="McAfee SmartFilter",
        isp_name="testnet",
        content_class=ContentClass.PROXY_ANONYMIZER,
        category_label="Anonymizers",
        requested_category="Anonymizers",
        total_domains=6,
        submit_count=3,
    )
    defaults.update(overrides)
    return ConfirmationConfig(**defaults)


class DescribeSiteFailures:
    def test_site_dies_before_review(self):
        """Host vanishes after submission: the vendor analyst cannot
        review it, the site never blocks, confirmation fails cleanly."""
        world, product = filtered_world()
        study = ConfirmationStudy(world, product, 65002)
        factory_domains = []

        # Run manually to kill sites mid-flight.
        from repro.measure.domains import TestDomainFactory

        factory = TestDomainFactory(world, 65002, rng_label="fi-manual")
        domains = factory.create_batch(6, ContentClass.PROXY_ANONYMIZER)
        for domain in domains[:3]:
            product.portal.submit(
                domain.url,
                DEFAULT_SUBMITTER,
                world.now,
                requested_category="Anonymizers",
            )
        # The submitted sites go dark before review completes.
        for domain in domains[:3]:
            world.unregister_website(domain.domain)
        world.advance_days(5)
        decided = product.portal.decided
        assert len(decided) == 3
        assert all(s.status is SubmissionStatus.REJECTED for s in decided)
        assert all("unreachable" in s.rejection_reason for s in decided)

    def test_dead_control_counts_as_site_down_not_blocked(self):
        world, product = filtered_world()
        client = MeasurementClient(world.vantage("testnet"), world.lab_vantage())
        world.unregister_website("daily-news.example.com")
        # DNS gone everywhere: lab fails too — SITE_DOWN, never "blocked".
        test = client.test_url(Url.parse("http://daily-news.example.com/"))
        assert test.comparison.verdict is Verdict.SITE_DOWN
        assert not test.blocked


class DescribeVendorFailures:
    def test_total_rejection_is_visible_in_result(self):
        world, product = filtered_world(accept_rate=0.0)
        study = ConfirmationStudy(world, product, 65002)
        result = study.run(proxy_config())
        assert not result.confirmed
        assert result.blocked_submitted == 0
        assert all(
            s.status is SubmissionStatus.REJECTED for s in result.submissions
        )
        assert all(
            s.rejection_reason == "reviewer declined"
            for s in result.submissions
        )


class DescribeInfrastructureFailures:
    def test_empty_geo_database_degrades_not_crashes(self):
        world = make_mini_world()
        product = make_smartfilter(
            make_content_oracle(world), derive_rng(1, "fi-sf2")
        )
        box = deploy(world, world.isps["testnet"], product, [])
        pipeline = IdentificationPipeline(
            ShodanIndex(scan_world(world)),
            WhatWebEngine(world_probe(world)),
            GeoDatabase(),  # knows nothing
            WhoisService.build_from_world(world),
            cctlds=("tl",),
        )
        report = pipeline.run(["McAfee SmartFilter"])
        assert len(report.installations) == 1
        installation = report.installations[0]
        assert installation.country_code == ""  # unlocatable, not wrong
        assert installation.asn == 65001  # whois still answers
        # Country aggregation skips the unlocatable entry.
        assert report.countries("McAfee SmartFilter") == set()

    def test_empty_whois_degrades_not_crashes(self):
        world = make_mini_world()
        product = make_smartfilter(
            make_content_oracle(world), derive_rng(1, "fi-sf3")
        )
        deploy(world, world.isps["testnet"], product, [])
        pipeline = IdentificationPipeline(
            ShodanIndex(scan_world(world)),
            WhatWebEngine(world_probe(world)),
            GeoDatabase.build_from_world(world),
            WhoisService(),  # knows nothing
            cctlds=("tl",),
        )
        report = pipeline.run(["McAfee SmartFilter"])
        installation = report.installations[0]
        assert installation.asn is None
        assert installation.org_name == ""
        # Downstream: the scale model skips vantage-less installations.
        cost = targeted_campaign(
            report, "McAfee SmartFilter", lambda asn: None, proxy_config()
        )
        assert cost.target_isps == 0

    def test_empty_shodan_index_finds_nothing(self):
        world = make_mini_world()
        pipeline = IdentificationPipeline(
            ShodanIndex([]),
            WhatWebEngine(world_probe(world)),
            GeoDatabase.build_from_world(world),
            WhoisService.build_from_world(world),
            cctlds=("tl",),
        )
        report = pipeline.run()
        assert report.installations == []
        assert report.candidates == []


class DescribeExecutorFaults:
    """Fault injection at the fan-out layer: containment and the
    world-facing cache invalidation path."""

    def test_one_dead_vantage_leaves_sibling_surveys_intact(self):
        from repro.exec.executor import Executor, TaskFailure
        from repro.measure.netalyzr import detect_proxy, install_reference_server

        world, _product = filtered_world()
        install_reference_server(world, 65002)

        def survey(isp_name):
            if isp_name == "down-isp":
                raise OSError("no route to vantage")
            return detect_proxy(world.vantage(isp_name))

        executor = Executor(workers=2, metrics=None)
        outcomes = dict(
            executor.map_unordered(
                survey, ["testnet", "down-isp"], label="campaign"
            )
        )
        assert not isinstance(outcomes[0], TaskFailure)
        assert outcomes[0].proxy_detected
        assert isinstance(outcomes[1], TaskFailure)
        assert "no route" in str(outcomes[1].cause)
        assert executor.metrics.count("campaign.failures") == 1

    def test_dns_follows_campaign_domains(self):
        """§4 campaign domains register and tear down mid-study; a
        fetch must never reach a torn-down domain's old address."""
        world = make_mini_world()
        client = MeasurementClient(world.vantage("testnet"), world.lab_vantage())

        url = Url.parse("http://daily-news.example.com/")
        assert client.test_url(url).comparison.verdict is Verdict.ACCESSIBLE

        world.unregister_website("daily-news.example.com")
        assert client.test_url(url).comparison.verdict is Verdict.SITE_DOWN

        # Re-registration is visible at once.
        world.register_website(
            "daily-news.example.com", ContentClass.NEWS, 65002
        )
        assert client.test_url(url).comparison.verdict is Verdict.ACCESSIBLE


class DescribeClockMisuse:
    def test_study_refuses_time_travel(self, mini_world):
        mini_world.advance_days(10)
        from repro.world.clock import SimTime

        with pytest.raises(ValueError):
            mini_world.clock.advance_to(SimTime.from_days(5))
