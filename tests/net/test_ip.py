"""Unit tests for IPv4 addresses, prefixes, pools, and the LPM table."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.net.errors import AddressError, AllocationExhausted
from repro.net.ip import (
    AddressPool,
    Ipv4Address,
    Ipv4Prefix,
    PrefixPool,
    PrefixTable,
)


class DescribeAddressParsing:
    def test_parses_dotted_quad(self):
        assert Ipv4Address.parse("192.0.2.1").value == 0xC0000201

    def test_roundtrips_to_string(self):
        assert str(Ipv4Address.parse("10.20.30.40")) == "10.20.30.40"

    def test_strips_whitespace(self):
        assert Ipv4Address.parse("  8.8.8.8 ") == Ipv4Address.parse("8.8.8.8")

    @pytest.mark.parametrize(
        "bad",
        ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.a", "01.2.3.4",
         "-1.2.3.4", "1..2.3"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            Ipv4Address.parse(bad)

    @pytest.mark.parametrize("bad", ["1.2.3.\u0663", "1.2.3.\u00b2"])
    def test_rejects_non_ascii_digits(self, bad):
        # str.isdigit accepts both; int() reads "٣" as 3 and rejects "²".
        with pytest.raises(AddressError):
            Ipv4Address.parse(bad)

    def test_rejects_out_of_range_value(self):
        with pytest.raises(AddressError):
            Ipv4Address(1 << 32)
        with pytest.raises(AddressError):
            Ipv4Address(-1)

    def test_ordering_follows_numeric_value(self):
        low = Ipv4Address.parse("10.0.0.1")
        high = Ipv4Address.parse("10.0.0.2")
        assert low < high

    def test_addition_offsets(self):
        base = Ipv4Address.parse("10.0.0.0")
        assert str(base + 258) == "10.0.1.2"

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_string_roundtrip_property(self, value):
        address = Ipv4Address(value)
        assert Ipv4Address.parse(str(address)) == address


class DescribePrefixes:
    def test_parses_cidr(self):
        prefix = Ipv4Prefix.parse("192.0.2.0/24")
        assert prefix.length == 24
        assert prefix.num_addresses == 256

    def test_rejects_host_bits_set(self):
        with pytest.raises(AddressError):
            Ipv4Prefix.parse("192.0.2.1/24")

    def test_rejects_non_ascii_prefix_length(self):
        # int() reads "٨" as 8, which would make this a valid /8.
        with pytest.raises(AddressError):
            Ipv4Prefix.parse("10.0.0.0/\u0668")

    @pytest.mark.parametrize("bad", ["192.0.2.0", "192.0.2.0/33", "192.0.2.0/x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            Ipv4Prefix.parse(bad)

    def test_contains_address(self):
        prefix = Ipv4Prefix.parse("10.0.0.0/8")
        assert Ipv4Address.parse("10.255.0.1") in prefix
        assert Ipv4Address.parse("11.0.0.0") not in prefix

    def test_contains_subprefix(self):
        parent = Ipv4Prefix.parse("10.0.0.0/8")
        assert Ipv4Prefix.parse("10.1.0.0/16") in parent
        assert Ipv4Prefix.parse("11.0.0.0/16") not in parent
        assert parent not in Ipv4Prefix.parse("10.1.0.0/16")

    def test_contains_rejects_other_types(self):
        assert "10.0.0.1" not in Ipv4Prefix.parse("10.0.0.0/8")

    def test_address_at_bounds(self):
        prefix = Ipv4Prefix.parse("192.0.2.0/30")
        assert str(prefix.address_at(3)) == "192.0.2.3"
        with pytest.raises(AddressError):
            prefix.address_at(4)

    def test_hosts_skip_network_and_broadcast(self):
        hosts = list(Ipv4Prefix.parse("192.0.2.0/29").hosts())
        assert len(hosts) == 6
        assert str(hosts[0]) == "192.0.2.1"
        assert str(hosts[-1]) == "192.0.2.6"

    def test_hosts_on_point_to_point(self):
        assert len(list(Ipv4Prefix.parse("192.0.2.0/31").hosts())) == 2

    @given(
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=0xFFFFFF),
    )
    def test_membership_property(self, length, offset):
        prefix = Ipv4Prefix(Ipv4Address(0xC0000000 & (0xFFFFFFFF << (32 - length)) if length else 0), length)
        inside = prefix.address_at(offset % prefix.num_addresses)
        assert inside in prefix


class DescribeAddressPool:
    def test_allocates_sequentially(self):
        pool = AddressPool(Ipv4Prefix.parse("192.0.2.0/29"))
        first = pool.allocate()
        second = pool.allocate()
        assert str(first) == "192.0.2.1"
        assert str(second) == "192.0.2.2"

    def test_exhaustion(self):
        pool = AddressPool(Ipv4Prefix.parse("192.0.2.0/30"))
        pool.allocate()
        pool.allocate()
        with pytest.raises(AllocationExhausted):
            pool.allocate()

    def test_remaining_counts_down(self):
        pool = AddressPool(Ipv4Prefix.parse("192.0.2.0/29"))
        before = pool.remaining
        pool.allocate()
        assert pool.remaining == before - 1


class DescribePrefixPool:
    def test_allocates_disjoint_children(self):
        pool = PrefixPool(Ipv4Prefix.parse("10.0.0.0/14"), 16)
        a, b = pool.allocate(), pool.allocate()
        assert a != b
        assert a.network not in b and b.network not in a

    def test_exhaustion(self):
        pool = PrefixPool(Ipv4Prefix.parse("10.0.0.0/15"), 16)
        pool.allocate()
        pool.allocate()
        with pytest.raises(AllocationExhausted):
            pool.allocate()

    def test_rejects_oversized_children(self):
        with pytest.raises(AddressError):
            PrefixPool(Ipv4Prefix.parse("10.0.0.0/16"), 8)

    def test_allocated_listing(self):
        pool = PrefixPool(Ipv4Prefix.parse("10.0.0.0/14"), 16)
        pool.allocate()
        assert len(pool.allocated) == 1


class DescribePrefixTable:
    def test_longest_prefix_wins(self):
        table = PrefixTable()
        table.add(Ipv4Prefix.parse("10.0.0.0/8"), "coarse")
        table.add(Ipv4Prefix.parse("10.1.0.0/16"), "fine")
        assert table.lookup(Ipv4Address.parse("10.1.2.3")) == "fine"
        assert table.lookup(Ipv4Address.parse("10.2.2.3")) == "coarse"

    def test_miss_returns_none(self):
        table = PrefixTable()
        table.add(Ipv4Prefix.parse("10.0.0.0/8"), "x")
        assert table.lookup(Ipv4Address.parse("11.0.0.1")) is None

    def test_add_after_lookup_resorts(self):
        table = PrefixTable()
        table.add(Ipv4Prefix.parse("10.0.0.0/8"), "coarse")
        assert table.lookup(Ipv4Address.parse("10.1.2.3")) == "coarse"
        table.add(Ipv4Prefix.parse("10.1.0.0/16"), "fine")
        assert table.lookup(Ipv4Address.parse("10.1.2.3")) == "fine"

    def test_len_and_iter(self):
        table = PrefixTable()
        table.add(Ipv4Prefix.parse("10.0.0.0/8"), 1)
        table.add(Ipv4Prefix.parse("10.1.0.0/16"), 2)
        assert len(table) == 2
        lengths = [prefix.length for prefix, _v in table]
        assert lengths == sorted(lengths, reverse=True)
