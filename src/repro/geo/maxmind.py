"""MaxMind-style IP geolocation.

§3.1: "we use geolocation data from MaxMind to map the IP addresses
matching WhatWeb signatures to country-level location". The database is
derived from the world's AS registrations, so every prefix maps to the
country its AS is registered in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.ip import Ipv4Address, Ipv4Prefix, PrefixTable
from repro.world.world import World


@dataclass
class GeoRecord:
    prefix: Ipv4Prefix
    country_code: str


class GeoDatabase:
    """Prefix-to-country database with longest-prefix-match lookups."""

    def __init__(self) -> None:
        self._table = PrefixTable()

    def add(self, prefix: Ipv4Prefix, country_code: str) -> None:
        self._table.add(prefix, GeoRecord(prefix, country_code.lower()))

    def country_code(self, address: Ipv4Address) -> Optional[str]:
        record = self._table.lookup(address)
        return record.country_code if isinstance(record, GeoRecord) else None

    @classmethod
    def build_from_world(cls, world: World) -> "GeoDatabase":
        """Derive a database from AS registrations."""
        database = cls()
        for asn in sorted(world.autonomous_systems):
            autonomous_system = world.autonomous_systems[asn]
            for prefix in autonomous_system.prefixes:
                database.add(prefix, autonomous_system.country.code)
        return database
