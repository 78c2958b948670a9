"""Small behaviours not exercised elsewhere."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.tables import render_table5
from repro.core.evasion import EvasionOutcome
from repro.middlebox.deploy import deploy
from repro.net.http import Headers
from repro.net.url import Url
from repro.products.base import BlockPageConfig
from repro.products.smartfilter import make_smartfilter
from repro.world.rng import derive_rng

from tests.conftest import make_content_oracle, make_mini_world

_HEADER_NAME = st.from_regex(r"[A-Za-z][A-Za-z0-9-]{0,15}", fullmatch=True)
_HEADER_VALUE = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=30
)


class DescribeHeaderProperties:
    @given(_HEADER_NAME, _HEADER_VALUE)
    def test_set_then_get_roundtrip(self, name, value):
        headers = Headers()
        headers.set(name, value)
        assert headers.get(name.upper()) == value
        assert headers.get(name.lower()) == value

    @given(_HEADER_NAME, st.lists(_HEADER_VALUE, min_size=1, max_size=4))
    def test_add_preserves_multiplicity(self, name, values):
        headers = Headers()
        for value in values:
            headers.add(name, value)
        assert headers.get_all(name) == values

    @given(_HEADER_NAME, _HEADER_VALUE)
    def test_remove_clears_all_casings(self, name, value):
        headers = Headers([(name.lower(), value), (name.upper(), value)])
        headers.remove(name)
        assert headers.get(name) is None


class DescribeCustomBlockMessage:
    def test_operator_message_on_block_page(self):
        world = make_mini_world()
        product = make_smartfilter(
            make_content_oracle(world), derive_rng(1, "gap-sf")
        )
        from repro.middlebox.policy import FilterPolicy

        policy = FilterPolicy(
            block_page=BlockPageConfig(
                custom_message="Access denied per national regulation 42."
            )
        )
        deploy(
            world, world.isps["testnet"], product, ["Anonymizers"],
            policy=policy,
        )
        product.database.add(
            "free-proxy.example.com",
            product.taxonomy.by_name("Anonymizers"),
            world.now,
        )
        result = world.vantage("testnet").fetch(
            Url.for_host("free-proxy.example.com")
        )
        assert "national regulation 42" in result.response.body


class DescribeTable5Renderer:
    def test_renders_outcomes(self):
        text = render_table5(
            [EvasionOutcome("hide", False, False, True, "gone dark")]
        )
        assert "hide" in text
        assert "gone dark" in text

    def test_renders_empty(self):
        text = render_table5([])
        assert "Tactic" in text


class DescribeBannerMetadata:
    def test_observed_at_stamped(self, mini_world):
        from repro.scan.banner import grab_banner

        mini_world.advance_days(3)
        site = mini_world.websites["daily-news.example.com"]
        record = grab_banner(mini_world, site.ip, 80)
        assert record.observed_at == mini_world.now

    def test_https_banner(self, mini_world):
        from repro.scan.banner import grab_banner

        site = mini_world.websites["daily-news.example.com"]
        record = grab_banner(mini_world, site.ip, 443)
        assert record is not None
        assert record.port == 443
