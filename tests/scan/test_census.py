"""Unit tests for the Internet-Census-style full sweep."""

from __future__ import annotations

from repro.scan.census import run_census


class DescribeCensus:
    def test_full_coverage(self, mini_world):
        census = run_census(mini_world)
        assert len(census) > 0
        ips = {str(r.ip) for r in census.records}
        for site in mini_world.websites.values():
            assert str(site.ip) in ips

    def test_grep_uncapped(self, mini_world):
        census = run_census(mini_world)
        hits = census.grep("example.com")
        assert len(hits) >= 3 * 2  # three sites on ports 80+443
