"""Unit tests for the MaxMind-style geolocation database."""

from __future__ import annotations

from repro.geo.maxmind import GeoDatabase
from repro.net.ip import Ipv4Address, Ipv4Prefix


class DescribeGeoDatabase:
    def test_lookup(self):
        database = GeoDatabase()
        database.add(Ipv4Prefix.parse("20.0.0.0/16"), "AE")
        assert database.country_code(Ipv4Address.parse("20.0.1.1")) == "ae"
        assert database.country_code(Ipv4Address.parse("21.0.0.1")) is None

    def test_longest_prefix_wins(self):
        database = GeoDatabase()
        database.add(Ipv4Prefix.parse("20.0.0.0/8"), "us")
        database.add(Ipv4Prefix.parse("20.5.0.0/16"), "qa")
        assert database.country_code(Ipv4Address.parse("20.5.0.1")) == "qa"
        assert database.country_code(Ipv4Address.parse("20.6.0.1")) == "us"

    def test_build_from_world_exact(self, mini_world):
        database = GeoDatabase.build_from_world(mini_world)
        site = mini_world.websites["daily-news.example.com"]
        assert database.country_code(site.ip) == "ca"
