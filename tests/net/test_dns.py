"""Unit tests for the simulated DNS zone."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.net.dns import DnsZone
from repro.net.errors import NxDomain
from repro.net.ip import Ipv4Address


@pytest.fixture()
def zone():
    zone = DnsZone()
    zone.register("example.com", Ipv4Address.parse("192.0.2.1"))
    zone.register("blocked.example.com", Ipv4Address.parse("192.0.2.2"))
    return zone


class DescribeZone:
    def test_resolution(self, zone):
        assert str(zone.resolve("example.com")) == "192.0.2.1"

    def test_case_and_trailing_dot_insensitive(self, zone):
        assert str(zone.resolve("Example.COM.")) == "192.0.2.1"

    def test_nxdomain(self, zone):
        with pytest.raises(NxDomain) as exc:
            zone.resolve("missing.example.com")
        assert "missing.example.com" in str(exc.value)

    def test_repointing(self, zone):
        zone.register("example.com", Ipv4Address.parse("192.0.2.9"))
        assert str(zone.resolve("example.com")) == "192.0.2.9"

    def test_unregister(self, zone):
        zone.unregister("example.com")
        with pytest.raises(NxDomain):
            zone.resolve("example.com")

    def test_unregister_missing_is_noop(self, zone):
        zone.unregister("never-existed.example.com")

    def test_reverse(self, zone):
        assert zone.reverse(Ipv4Address.parse("192.0.2.1")) == "example.com"
        assert zone.reverse(Ipv4Address.parse("192.0.2.200")) is None

    def test_reverse_returns_first_registered_name(self, zone):
        shared = Ipv4Address.parse("192.0.2.1")
        zone.register("alias.example.com", shared)
        assert zone.reverse(shared) == "example.com"

    def test_reverse_after_unregister_returns_other_name(self, zone):
        shared = Ipv4Address.parse("192.0.2.1")
        zone.register("alias.example.com", shared)
        assert zone.reverse(shared) == "example.com"
        zone.unregister("example.com")
        assert zone.reverse(shared) == "alias.example.com"

    def test_reverse_follows_registration_not_repoint_order(self, zone):
        shared = Ipv4Address.parse("192.0.2.1")
        zone.register("alias.example.com", shared)
        zone.register("example.com", Ipv4Address.parse("192.0.2.50"))
        assert zone.reverse(shared) == "alias.example.com"
        # Pointed back after the alias, but registered before it.
        zone.register("example.com", shared)
        assert zone.reverse(shared) == "example.com"

    def test_reverse_between_registers_sees_current_zone(self, zone):
        fresh = Ipv4Address.parse("192.0.2.77")
        assert zone.reverse(fresh) is None
        zone.register("fresh.example.com", fresh)
        assert zone.reverse(fresh) == "fresh.example.com"
        zone.register("fresh.example.com", Ipv4Address.parse("192.0.2.78"))
        assert zone.reverse(fresh) is None

    def test_concurrent_reverse_matches_serial(self):
        zone = DnsZone()
        addresses = [Ipv4Address(0x0A000000 + i) for i in range(300)]
        for i, address in enumerate(addresses):
            zone.register(f"host{i}.example.com", address)
            zone.register(f"alias{i}.example.com", address)
        expected = [f"host{i}.example.com" for i in range(300)]
        results: list = []

        def worker() -> None:
            results.append([zone.reverse(address) for address in addresses])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * len(threads)

    def test_contains_and_len(self, zone):
        assert "example.com" in zone
        assert "nope.example.com" not in zone
        assert 42 not in zone
        assert len(zone) == 2

