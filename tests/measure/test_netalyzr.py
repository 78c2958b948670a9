"""Unit tests for Netalyzr-style transparent-proxy fingerprinting."""

from __future__ import annotations

import pytest

from repro import build_scenario
from repro.core.evasion import mask_installation
from repro.exec.executor import Executor
from repro.measure.netalyzr import (
    REFERENCE_HOST,
    canonical_reference_response,
    detect_proxy,
    install_reference_server,
    survey_isps,
)
from repro.middlebox.deploy import deploy
from repro.products.bluecoat import make_bluecoat
from repro.products.netsweeper import make_netsweeper
from repro.products.smartfilter import make_smartfilter
from repro.world.rng import derive_rng

from tests.conftest import make_content_oracle, make_mini_world


@pytest.fixture()
def reference_world(mini_world):
    install_reference_server(mini_world, 65002)
    return mini_world


class DescribeReferenceServer:
    def test_install_is_idempotent(self, mini_world):
        first = install_reference_server(mini_world, 65002)
        second = install_reference_server(mini_world, 65002)
        assert first.ip == second.ip

    def test_canonical_response_is_stable(self):
        assert (
            canonical_reference_response().full_text()
            == canonical_reference_response().full_text()
        )

    def test_detect_requires_installation(self, mini_world):
        with pytest.raises(LookupError):
            detect_proxy(mini_world.vantage("testnet"))


class DescribeDetection:
    def test_clean_path_not_flagged(self, reference_world):
        report = detect_proxy(reference_world.vantage("testnet"))
        assert not report.proxy_detected
        assert report.findings == []
        assert not report.attributable

    def test_bluecoat_proxy_detected_and_attributed(self, reference_world):
        product = make_bluecoat(
            make_content_oracle(reference_world), derive_rng(1, "nz-bc")
        )
        deploy(reference_world, reference_world.isps["testnet"], product, [])
        report = detect_proxy(reference_world.vantage("testnet"))
        assert report.proxy_detected
        assert report.attributed_products == ["Blue Coat"]
        assert any(f.kind == "added_header" for f in report.findings)

    def test_smartfilter_gateway_attributed(self, reference_world):
        product = make_smartfilter(
            make_content_oracle(reference_world), derive_rng(1, "nz-sf")
        )
        deploy(reference_world, reference_world.isps["testnet"], product, [])
        report = detect_proxy(reference_world.vantage("testnet"))
        assert report.proxy_detected
        assert "McAfee SmartFilter" in report.attributed_products

    def test_netsweeper_software_filter_invisible(self, reference_world):
        """Netsweeper is not a proxy appliance: no transit residue."""
        product = make_netsweeper(
            make_content_oracle(reference_world), derive_rng(1, "nz-ns")
        )
        deploy(reference_world, reference_world.isps["testnet"], product, [])
        report = detect_proxy(reference_world.vantage("testnet"))
        assert not report.proxy_detected

    def test_masked_proxy_detected_but_unattributable(self, reference_world):
        """§6.1 masking hides WHO, not THAT: a generic Via remains."""
        product = make_bluecoat(
            make_content_oracle(reference_world), derive_rng(1, "nz-bc2")
        )
        box = deploy(reference_world, reference_world.isps["testnet"], product, [])
        mask_installation(box)
        report = detect_proxy(reference_world.vantage("testnet"))
        assert report.proxy_detected
        assert not report.attributable

    def test_lab_vantage_clean(self, reference_world):
        report = detect_proxy(reference_world.lab_vantage())
        assert not report.proxy_detected

    def test_survey(self, reference_world):
        product = make_bluecoat(
            make_content_oracle(reference_world), derive_rng(1, "nz-bc3")
        )
        deploy(reference_world, reference_world.isps["testnet"], product, [])
        reports = survey_isps(reference_world, ["testnet"])
        assert reports["testnet"].proxy_detected

    def test_parallel_survey_returns_the_inline_result(self):
        isps = ["yemennet", "etisalat", "comcast", "du", "ooredoo"]
        inline = survey_isps(build_scenario().world, isps)
        parallel = survey_isps(
            build_scenario().world, isps, executor=Executor(workers=2)
        )
        assert list(parallel) == isps
        assert parallel == inline
        assert {report.proxy_detected for report in inline.values()} == {
            True,
            False,
        }


class DescribeScenarioGroundTruth:
    def test_cross_validation_against_deployments(self, scenario):
        """§7: the confirmation ground truth validates the fingerprinting.
        Every ISP whose stack contains a proxy appliance is flagged;
        software-filter and unfiltered ISPs are not."""
        world = scenario.world
        proxy_appliances = {"Blue Coat", "McAfee SmartFilter", "Websense"}
        for isp_name in ("etisalat", "ooredoo", "comcast", "tx-utility-1",
                         "du", "yemennet", "de-isp", "gb-isp"):
            isp = world.isps[isp_name]
            has_proxy = any(
                getattr(device, "appliance", None) is not None
                and device.appliance.vendor in proxy_appliances
                and device.enabled
                for device in isp.devices
            )
            report = detect_proxy(world.vantage(isp_name))
            assert report.proxy_detected == has_proxy, isp_name
