"""Unit tests for the Shodan-like banner index."""

from __future__ import annotations

import pytest

from repro.net.ip import Ipv4Address
from repro.scan.banner import BannerRecord
from repro.scan.shodan import ShodanIndex
from repro.world.clock import SimTime


def record(ip: str, port=80, banner="HTTP/1.1 200 OK", title="", host="", cc=""):
    return BannerRecord(
        ip=Ipv4Address.parse(ip),
        port=port,
        status_line=banner,
        headers_text="",
        html_title=title,
        hostname=host,
        observed_at=SimTime(0),
        country_code=cc,
    )


@pytest.fixture()
def index():
    return ShodanIndex(
        [
            record("20.0.0.1", 8080, title="Netsweeper WebAdmin", cc="ye"),
            record("20.0.0.2", 80, title="McAfee Web Gateway", cc="ae"),
            record("20.0.0.3", 80, title="Shop", host="shop.example.ae", cc="ae"),
            record("20.0.0.4", 15871, banner="HTTP/1.1 403 Forbidden",
                   title="blockpage.cgi docs", cc="us"),
        ]
    )


class DescribeSearch:
    def test_substring_match_on_title(self, index):
        hits = index.search("netsweeper")
        assert [str(h.ip) for h in hits] == ["20.0.0.1"]

    def test_hostname_matches(self, index):
        assert len(index.search("shop.example")) == 1

    def test_multi_token_is_conjunction(self, index):
        assert len(index.search("mcafee gateway")) == 1
        assert len(index.search("mcafee netsweeper")) == 0

    def test_quoted_phrase(self, index):
        assert len(index.search('"mcafee web gateway"')) == 1
        assert len(index.search('"web mcafee"')) == 0

    def test_country_filter(self, index):
        assert len(index.search("country:ae")) == 2
        assert len(index.search("netsweeper country:ae")) == 0
        assert len(index.search("netsweeper country:ye")) == 1

    def test_port_filter(self, index):
        assert len(index.search("port:15871")) == 1
        assert len(index.search("port:9999")) == 0

    def test_non_decimal_port_matches_nothing(self, index):
        # "²".isdigit() is true but int("²") raises.
        assert index.search("port:²") == []
        assert index.search("port:8o") == []

    def test_empty_query_returns_capped_everything(self, index):
        assert len(index.search("")) == 4

    def test_query_log(self, index):
        index.search("netsweeper")
        index.search("mcafee")
        assert index.log.query_count == 2
        assert index.log.entries[0] == ("netsweeper", 1)


class DescribeResultCap:
    def test_cap_truncates(self):
        records = [record(f"20.0.1.{i}", cc="ae") for i in range(1, 50)]
        index = ShodanIndex(records, result_cap=10)
        assert len(index.search("HTTP")) == 10

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            ShodanIndex([], result_cap=0)

    def test_expansion_unions_past_cap(self):
        records = [
            record(f"20.0.1.{i}", cc=("ae" if i % 2 else "sa"))
            for i in range(1, 41)
        ]
        index = ShodanIndex(records, result_cap=10)
        capped = index.search("HTTP")
        expanded = index.search_expanded("HTTP", ["ae", "sa"])
        assert len(capped) == 10
        # bare query covers i=1..10; each country query contributes its
        # first 10 -> union is the first 20 records.
        assert len(expanded) == 20
        # No duplicates in the union.
        keys = [(r.ip.value, r.port) for r in expanded]
        assert len(keys) == len(set(keys))


class DescribeGeolocateHook:
    def test_geolocate_overrides_country(self):
        index = ShodanIndex(
            [record("20.0.0.9", cc="xx")],
            geolocate=lambda ip: "qa",
        )
        assert index.records[0].country_code == "qa"

    def test_geolocate_none_keeps_original(self):
        index = ShodanIndex(
            [record("20.0.0.9", cc="xx")],
            geolocate=lambda ip: None,
        )
        assert index.records[0].country_code == "xx"
