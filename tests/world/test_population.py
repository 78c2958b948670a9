"""Unit tests for the synthetic website population."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.world.population import (
    DEFAULT_CLASS_MIX,
    LOCAL_TLD_FRACTION,
    DomainSynthesizer,
    populate,
)
from repro.world.rng import derive_rng

from tests.conftest import make_mini_world


class DescribeDomainSynthesizer:
    def test_two_word_shape(self):
        synthesizer = DomainSynthesizer(derive_rng(1, "d"))
        domain = synthesizer.two_word()
        name, tld = domain.rsplit(".", 1)
        assert tld == "info"
        assert name.isalpha()

    def test_two_word_unique(self):
        synthesizer = DomainSynthesizer(derive_rng(1, "d"))
        domains = {synthesizer.two_word() for _ in range(200)}
        assert len(domains) == 200

    def test_reserve_prevents_collision(self):
        a = DomainSynthesizer(derive_rng(1, "d"))
        first = a.two_word()
        b = DomainSynthesizer(derive_rng(1, "d"))
        b.reserve(first)
        assert b.two_word() != first

    def test_filler_uses_requested_tld(self):
        synthesizer = DomainSynthesizer(derive_rng(1, "d"))
        assert synthesizer.filler("ae").endswith(".ae")

    def test_deterministic(self):
        a = DomainSynthesizer(derive_rng(5, "x"))
        b = DomainSynthesizer(derive_rng(5, "x"))
        assert [a.two_word() for _ in range(10)] == [b.two_word() for _ in range(10)]


class DescribePopulate:
    def test_creates_requested_count(self, mini_world):
        sites = populate(
            mini_world, [65002], 50
        )
        assert len(sites) == 50

    def test_sites_registered_in_dns(self, mini_world):
        sites = populate(mini_world, [65002], 10)
        for site in sites:
            assert site.domain in mini_world.zone

    def test_requires_hosting_as(self, mini_world):
        with pytest.raises(ValueError):
            populate(mini_world, [], 10)

    def test_deterministic_across_builds(self):
        a = make_mini_world(seed=3)
        b = make_mini_world(seed=3)
        sites_a = populate(a, [65002], 40)
        sites_b = populate(b, [65002], 40)
        assert [s.domain for s in sites_a] == [s.domain for s in sites_b]
        assert [s.content_class for s in sites_a] == [
            s.content_class for s in sites_b
        ]

    def test_different_seeds_differ(self):
        a = populate(make_mini_world(seed=3), [65002], 40)
        b = populate(make_mini_world(seed=4), [65002], 40)
        assert [s.domain for s in a] != [s.domain for s in b]

    def test_class_mix_respected(self, mini_world):
        counts = Counter(
            s.content_class for s in populate(mini_world, [65002], 1000)
        )
        heaviest = max(DEFAULT_CLASS_MIX, key=DEFAULT_CLASS_MIX.get)
        lightest = min(DEFAULT_CLASS_MIX, key=DEFAULT_CLASS_MIX.get)
        # Weights 10 and 0.4: about 113 and 5 sites expected.
        assert counts[heaviest] > 5 * counts[lightest]

    def test_local_tld_fraction(self, mini_world):
        sites = populate(mini_world, [65002], 1000)
        cctlds = {"tl", "ca"}
        local = sum(s.domain.rsplit(".", 1)[-1] in cctlds for s in sites)
        assert abs(local / len(sites) - LOCAL_TLD_FRACTION) < 0.05

    def test_sites_fetchable(self, mini_world):
        from repro.net.url import Url

        sites = populate(mini_world, [65002], 5)
        lab = mini_world.lab_vantage()
        for site in sites:
            assert lab.fetch(Url.for_host(site.domain)).ok
