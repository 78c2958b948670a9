"""Unit tests for study orchestration helpers."""

from __future__ import annotations

import pytest

from repro.analysis.paper_data import PAPER_TABLE3
from repro.core.pipeline import FullStudy, StudyReport, config_for_row
from repro.core.identify import IdentificationReport
from repro.products.registry import FORTIGUARD, NETSWEEPER, SMARTFILTER
from repro.world.content import ContentClass
from repro.world.scenario import ScenarioConfig, build_scenario


class DescribeConfigForRow:
    def _row(self, product, isp_key):
        return next(
            r for r in PAPER_TABLE3
            if r.product == product and r.isp_key == isp_key
        )

    def test_smartfilter_pornography_case(self):
        row = self._row("McAfee SmartFilter", "bayanat")
        config = config_for_row(row)
        assert config.content_class is ContentClass.ADULT_IMAGES
        assert config.requested_category == "Pornography"
        assert config.pre_validate
        assert config.retest_rounds == 1
        assert config.total_domains == 10
        assert config.submit_count == 5

    def test_netsweeper_cases_skip_prevalidation(self):
        row = self._row("Netsweeper", "du")
        config = config_for_row(row)
        assert not config.pre_validate
        assert config.requested_category is None
        assert config.total_domains == 12

    def test_yemen_uses_repeat_rounds(self):
        row = self._row("Netsweeper", "yemennet")
        assert config_for_row(row).retest_rounds == 3
        assert config_for_row(self._row("Netsweeper", "du")).retest_rounds == 1

    def test_bluecoat_proxy_case(self):
        row = self._row("Blue Coat", "etisalat")
        config = config_for_row(row)
        assert config.content_class is ContentClass.PROXY_ANONYMIZER
        assert config.requested_category == "Proxy Avoidance"
        assert config.total_domains == 6


class DescribeStudyReport:
    def test_lookup_helpers_empty(self):
        report = StudyReport(identification=IdentificationReport())
        assert report.confirmation_for("X", "y", "z") is None
        assert report.confirmed_pairs() == []


def _plan(products=None):
    scenario = build_scenario(seed=2013, config=ScenarioConfig(population_size=50))
    study = FullStudy(scenario, products=products)
    return [(unit.key, unit.stage) for unit in study.plan()]


_CHARACTERIZE = [
    ("characterize:etisalat", "characterize"),
    ("characterize:du", "characterize"),
    ("characterize:yemennet", "characterize"),
    ("characterize:ooredoo", "characterize"),
]


class DescribePlan:
    """The campaign's unit keys and stages, in run order.

    The keys name journal records and snapshot results, so a change
    here strands every journal written before it.
    """

    def test_default_selection(self):
        assert _plan() == [
            ("identify", "identify"),
            ("confirm:McAfee SmartFilter:bayanat:Pornography", "confirm"),
            ("confirm:McAfee SmartFilter:etisalat:Anonymizers", "confirm"),
            ("probe:yemennet", "probe"),
            ("confirm:Netsweeper:du:Proxy anonymizer", "confirm"),
            ("confirm:Netsweeper:yemennet:Proxy anonymizer", "confirm"),
            ("confirm:Blue Coat:etisalat:Proxy Avoidance", "confirm"),
            ("confirm:Blue Coat:ooredoo:Proxy Avoidance", "confirm"),
            ("confirm:McAfee SmartFilter:ooredoo:Pornography", "confirm"),
            ("confirm:McAfee SmartFilter:etisalat:Pornography", "confirm"),
            ("confirm:McAfee SmartFilter:nournet:Pornography", "confirm"),
            ("confirm:Netsweeper:ooredoo:Proxy anonymizer", "confirm"),
        ] + _CHARACTERIZE

    def test_netsweeper_only(self):
        assert _plan([NETSWEEPER]) == [
            ("identify", "identify"),
            ("probe:yemennet", "probe"),
            ("confirm:Netsweeper:du:Proxy anonymizer", "confirm"),
            ("confirm:Netsweeper:yemennet:Proxy anonymizer", "confirm"),
            ("confirm:Netsweeper:ooredoo:Proxy anonymizer", "confirm"),
        ] + _CHARACTERIZE[1:]

    def test_smartfilter_only(self):
        assert _plan([SMARTFILTER]) == [
            ("identify", "identify"),
            ("confirm:McAfee SmartFilter:bayanat:Pornography", "confirm"),
            ("confirm:McAfee SmartFilter:etisalat:Anonymizers", "confirm"),
            ("confirm:McAfee SmartFilter:ooredoo:Pornography", "confirm"),
            ("confirm:McAfee SmartFilter:etisalat:Pornography", "confirm"),
            ("confirm:McAfee SmartFilter:nournet:Pornography", "confirm"),
        ] + _CHARACTERIZE[:1]

    def test_product_without_case_studies_only_identifies(self):
        assert _plan([FORTIGUARD]) == [("identify", "identify")]
