"""End-to-end proof of the registry architecture: the fifth product.

FortiGuard is defined entirely inside ``repro/products/fortiguard.py``
(spec, signature, taxonomy, block surface) and registered through the
registry bootstrap. These tests drive the full methodology against it —
identify (§3), confirm (§4), characterize (§5) — without any
FortiGuard-specific code in the pipeline layers.
"""

from __future__ import annotations

import pytest

from repro.core.characterize import ContentCharacterization
from repro.core.confirm import ConfirmationConfig, ConfirmationStudy
from repro.core.identify import IdentificationPipeline
from repro.geo.cymru import WhoisService
from repro.geo.maxmind import GeoDatabase
from repro.measure.classifiers import BlockPagePatternMatcher, VerdictEngine
from repro.net.url import Url
from repro.products.fortiguard import FORTIGUARD_TAXONOMY, FortiGuard
from repro.products.registry import FORTIGUARD, default_registry
from repro.scan.banner import scan_world
from repro.scan.shodan import ShodanIndex
from repro.scan.whatweb import WhatWebEngine, world_probe
from repro.world.builder import WorldBuilder
from repro.world.content import ContentClass

SELECTION = (FORTIGUARD,)


@pytest.fixture(scope="module")
def fortiguard_scenario():
    """A custom world with one FortiGate-filtered national ISP."""
    return (
        WorldBuilder(seed=11)
        .country("in", "India", region="South Asia")
        .country("ca", "Canada", region="North America")
        .hosting_as(65100, "HOSTCO", "Host Co", "ca")
        .isp("bharatnet", 65010, "BHARAT-NET", "Bharat Internet", "in",
             national=True)
        .population(150)
        .website("mirror-proxy.example", ContentClass.PROXY_ANONYMIZER)
        .product(FORTIGUARD, db_coverage=1.0)
        .deploy(FORTIGUARD, "bharatnet",
                blocked=["Proxy Avoidance", "Pornography"])
        .build()
    )


class DescribeSpec:
    def test_registered_but_not_a_paper_default(self):
        registry = default_registry()
        assert FORTIGUARD in registry
        assert FORTIGUARD not in registry.default_names()

    def test_taxonomy_covers_every_content_class(self):
        for content_class in ContentClass:
            # classify() returning None is allowed (unmapped classes stay
            # uncategorized), but the mapped labels must all resolve.
            category = FORTIGUARD_TAXONOMY.classify(content_class)
            if category is not None:
                assert FORTIGUARD_TAXONOMY.by_name(category.name) is category


class DescribeIdentification:
    def test_scan_keyword_whatweb_chain_finds_the_box(self, fortiguard_scenario):
        world = fortiguard_scenario.world
        registry = default_registry()
        records = scan_world(world, registry.scan_ports(SELECTION))
        pipeline = IdentificationPipeline(
            ShodanIndex(records),
            WhatWebEngine(
                world_probe(world),
                signatures=registry.whatweb_signatures(SELECTION),
                probe_plan=registry.probe_plan(SELECTION),
            ),
            GeoDatabase.build_from_world(world),
            WhoisService.build_from_world(world),
            cctlds=("in", "ca"),
        )
        report = pipeline.run(SELECTION)
        assert report.products == SELECTION
        assert report.countries(FORTIGUARD) == {"in"}
        assert report.installations


class DescribeConfirmation:
    def test_submission_study_confirms_censorship(self, fortiguard_scenario):
        spec = default_registry().get(FORTIGUARD)
        study = ConfirmationStudy(
            fortiguard_scenario.world,
            fortiguard_scenario.products[FORTIGUARD],
            fortiguard_scenario.hosting_asns[0],
        )
        result = study.run(
            ConfirmationConfig(
                product_name=FORTIGUARD,
                isp_name="bharatnet",
                content_class=ContentClass.PROXY_ANONYMIZER,
                category_label="Proxy Avoidance",
                requested_category=spec.category_requests[
                    ContentClass.PROXY_ANONYMIZER
                ],
                total_domains=6,
                submit_count=3,
                pre_validate=spec.pre_validate,
            )
        )
        assert result.confirmed
        assert result.blocked_submitted == 3
        assert result.blocked_control == 0


class DescribeCharacterization:
    def test_block_pages_detected_and_attributed(self, fortiguard_scenario):
        world = fortiguard_scenario.world
        characterization = ContentCharacterization(
            world,
            engine=VerdictEngine(
                matcher=BlockPagePatternMatcher.for_products(
                    default_registry().names()
                )
            ),
        )
        result = characterization.run("bharatnet", FORTIGUARD)
        assert result.blocked_categories()
        attribution = result.vendor_attribution()
        assert attribution and set(attribution) == {FORTIGUARD}


class DescribeBlockSurface:
    def test_blocked_fetch_serves_the_fortiguard_page(self, fortiguard_scenario):
        result = fortiguard_scenario.world.vantage("bharatnet").fetch(
            Url.for_host("mirror-proxy.example")
        )
        response = result.hops[-1].response
        assert response.status == 200
        assert "Web Page Blocked!" in response.body
        assert "FortiGuard" in response.body
        assert response.headers.get("Server") == "FortiGate"

    def test_product_instance_is_the_module_class(self, fortiguard_scenario):
        assert isinstance(
            fortiguard_scenario.products[FORTIGUARD], FortiGuard
        )
