"""Unit tests for block-page regex detection."""

from __future__ import annotations

import pytest

from repro.measure.classifiers import BlockPagePatternMatcher
from repro.middlebox.deploy import deploy
from repro.net.fetch import FetchOutcome, FetchResult, Hop
from repro.net.http import HttpRequest, ok_response
from repro.net.url import Url
from repro.products.bluecoat import make_bluecoat
from repro.products.netsweeper import make_netsweeper
from repro.products.registry import default_registry
from repro.products.smartfilter import make_smartfilter
from repro.products.websense import make_websense
from repro.world.rng import derive_rng

from tests.conftest import make_content_oracle, make_mini_world

FACTORIES = {
    "Blue Coat": make_bluecoat,
    "McAfee SmartFilter": make_smartfilter,
    "Netsweeper": make_netsweeper,
    "Websense": make_websense,
}


def blocked_fetch(vendor: str, *, branding=True, strip=False) -> FetchResult:
    """Build a world where testnet blocks proxies via ``vendor`` and
    return the field fetch of a categorized proxy site."""
    world = make_mini_world()
    factory = FACTORIES[vendor]
    product = factory(make_content_oracle(world), derive_rng(1, f"bp-{vendor}"))
    proxy_name = {
        "Blue Coat": "Proxy Avoidance",
        "McAfee SmartFilter": "Anonymizers",
        "Netsweeper": "Proxy Anonymizer",
        "Websense": "Proxy Avoidance",
    }[vendor]
    box = deploy(world, world.isps["testnet"], product, [proxy_name])
    box.policy.block_page.show_branding = branding
    box.policy.block_page.strip_signature_headers = strip
    product.database.add(
        "free-proxy.example.com",
        product.taxonomy.by_name(proxy_name),
        world.now,
    )
    return world.vantage("testnet").fetch(
        Url.parse("http://free-proxy.example.com/")
    )


class DescribeVendorDetection:
    @pytest.mark.parametrize("vendor", sorted(FACTORIES))
    def test_detects_branded_block_flow(self, vendor):
        detection = BlockPagePatternMatcher().detect(blocked_fetch(vendor))
        assert detection is not None
        assert detection.vendor == vendor
        assert detection.matched

    @pytest.mark.parametrize("vendor", sorted(FACTORIES))
    def test_detects_unbranded_block_flow_structurally(self, vendor):
        """Branding off: the structural patterns still attribute."""
        result = blocked_fetch(vendor, branding=False)
        detection = BlockPagePatternMatcher().detect(result)
        assert detection is not None and detection.vendor == vendor

    def test_plain_page_not_detected(self):
        world = make_mini_world()
        result = world.lab_vantage().fetch(
            Url.parse("http://daily-news.example.com/")
        )
        assert BlockPagePatternMatcher().detect(result) is None

    def test_vendor_hostname_in_request_url_not_evidence(self):
        """A 200 page fetched FROM a vendor-named host must not count."""
        url = Url.parse("http://denypagetests.netsweeper.com/category/catno/5")
        result = FetchResult(
            url,
            FetchOutcome.OK,
            [Hop(HttpRequest.get(url), ok_response("Deny Page Test - Alcohol", "x"))],
        )
        assert BlockPagePatternMatcher().detect(result) is None


def fortiguard_unbranded_fetch() -> FetchResult:
    """A FortiGuard block with branding off.

    The unbranded page's "Web Page Blocked!" headline also matches
    Netsweeper's structural pattern, producing a genuine 1-1 vote tie —
    the scenario the detector's deterministic tie-break exists for.
    """
    from repro.products.fortiguard import make_fortiguard

    world = make_mini_world()
    product = make_fortiguard(
        make_content_oracle(world), derive_rng(1, "bp-fortiguard")
    )
    box = deploy(world, world.isps["testnet"], product, ["Proxy Avoidance"])
    box.policy.block_page.show_branding = False
    product.database.add(
        "free-proxy.example.com",
        product.taxonomy.by_name("Proxy Avoidance"),
        world.now,
    )
    return world.vantage("testnet").fetch(
        Url.parse("http://free-proxy.example.com/")
    )


class DescribeTieBreak:
    """Vote ties must resolve deterministically, never by corpus order."""

    def all_products_detector(self) -> BlockPagePatternMatcher:
        return BlockPagePatternMatcher.for_products(default_registry().names())

    def test_tie_resolves_lexicographically(self):
        detection = self.all_products_detector().detect(
            fortiguard_unbranded_fetch()
        )
        assert detection is not None
        assert detection.vendor == "FortiGuard"  # < "Netsweeper"

    def test_tie_break_is_corpus_order_independent(self):
        """Regression: the old max() verdict flipped with pattern order."""
        result = fortiguard_unbranded_fetch()
        registry = default_registry()
        patterns = registry.block_page_patterns(registry.names())
        forward = BlockPagePatternMatcher(patterns).detect(result)
        backward = BlockPagePatternMatcher(
            tuple(reversed(patterns))
        ).detect(result)
        assert forward is not None and backward is not None
        assert forward.vendor == backward.vendor == "FortiGuard"

    def test_more_distinct_matches_still_outranks_alphabet(self):
        """The tie-break only kicks in on equal vote counts."""
        detection = self.all_products_detector().detect(
            blocked_fetch("Netsweeper")
        )
        assert detection is not None
        assert detection.vendor == "Netsweeper"
