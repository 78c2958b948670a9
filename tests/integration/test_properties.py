"""Property-based tests over cross-module invariants."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.middlebox.deploy import deploy
from repro.net.url import Url
from repro.products.categories import (
    BLUECOAT_TAXONOMY,
    NETSWEEPER_TAXONOMY,
    SMARTFILTER_TAXONOMY,
    WEBSENSE_TAXONOMY,
)
from repro.products.database import UrlDatabase
from repro.products.smartfilter import make_smartfilter
from repro.world.clock import SimTime
from repro.world.content import ContentClass
from repro.world.rng import derive_rng

from tests.conftest import make_content_oracle, make_mini_world

ALL_TAXONOMIES = [
    BLUECOAT_TAXONOMY,
    SMARTFILTER_TAXONOMY,
    NETSWEEPER_TAXONOMY,
    WEBSENSE_TAXONOMY,
]


class DescribeTaxonomyProperties:
    @given(st.sampled_from(ALL_TAXONOMIES), st.data())
    def test_by_name_by_number_roundtrip(self, taxonomy, data):
        category = data.draw(st.sampled_from(taxonomy.categories))
        assert taxonomy.by_name(category.name) == category
        assert taxonomy.by_number(category.number) == category

    @given(st.sampled_from(ALL_TAXONOMIES), st.sampled_from(list(ContentClass)))
    def test_classify_total_function(self, taxonomy, content_class):
        """classify never raises and always returns a member category."""
        category = taxonomy.classify(content_class)
        if category is not None:
            assert taxonomy.by_number(category.number) == category


class DescribeDatabaseProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=365),  # day offset
                st.booleans(),  # which of two categories
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=400),
    )
    def test_lookup_is_latest_at_or_before(self, entries, query_day):
        database = UrlDatabase("prop")
        porn = SMARTFILTER_TAXONOMY.by_name("Pornography")
        proxy = SMARTFILTER_TAXONOMY.by_name("Anonymizers")
        for day, which in entries:
            database.add(
                "h.example", porn if which else proxy, SimTime.from_days(day)
            )
        result = database.lookup("h.example", SimTime.from_days(query_day))
        eligible = [
            (day, index, which)
            for index, (day, which) in enumerate(entries)
            if day <= query_day
        ]
        if not eligible:
            assert result is None
        else:
            _day, _index, which = max(eligible)
            assert result == (porn if which else proxy)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=10))
    def test_size_at_monotone_in_time(self, days):
        database = UrlDatabase("prop")
        porn = SMARTFILTER_TAXONOMY.by_name("Pornography")
        for index, day in enumerate(days):
            database.add(f"h{index}.example", porn, SimTime.from_days(day))
        sizes = [
            database.size_at(SimTime.from_days(d)) for d in range(0, 101, 10)
        ]
        assert sizes == sorted(sizes)


class DescribeSimTimeProperties:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0, max_value=1000, allow_nan=False),
    )
    def test_plus_days_monotone(self, start, days):
        t = SimTime(start)
        assert t.plus_days(days) >= t

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_subtraction_inverts_plus_minutes(self, start, delta):
        t = SimTime(start)
        assert (SimTime(start + delta) - t) == delta


class DescribeFetchProperties:
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=2**31))
    def test_world_fetch_never_crashes(self, seed_value):
        """Fetching arbitrary registered/unregistered names is total."""
        world = make_mini_world()
        rng = derive_rng(seed_value, "fuzz")
        hosts = sorted(world.websites) + ["unknown.example", "192.0.2.55"]
        host = rng.choice(hosts)
        path = rng.choice(["/", "/a", "/deep/path", "/x?q=1"])
        result = world.lab_vantage().fetch(Url.parse(f"http://{host}{path}"))
        assert result.outcome is not None

    @settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(list(ContentClass)))
    def test_blocking_is_policy_consistent(self, content_class):
        """For any content class: a deployment blocks a categorized host
        iff the vendor category is in policy."""
        world = make_mini_world()
        product = make_smartfilter(
            make_content_oracle(world), derive_rng(1, "prop-sf")
        )
        deploy(world, world.isps["testnet"], product, ["Pornography", "Anonymizers"])
        site = world.register_website(
            "probe-site.example", content_class, 65002
        )
        category = product.taxonomy.classify(content_class)
        if category is not None:
            product.database.add(site.domain, category, world.now)
        result = world.vantage("testnet").fetch(Url.for_host(site.domain))
        should_block = category is not None and category.name in (
            "Pornography",
            "Anonymizers",
        )
        if should_block:
            assert result.status == 403
        else:
            assert result.status == 200
