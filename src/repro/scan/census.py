"""Internet-Census-style full sweep.

§3.1 notes the authors were "working towards applying [the methodology]
on a larger scale with the Internet Census data". Where Shodan is a
partial, query-capped index, a census sweep enumerates everything: full
coverage, no result cap, and the consumer filters locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.scan.banner import DEFAULT_SCAN_PORTS, BannerRecord, scan_world
from repro.world.world import World


@dataclass
class CensusDataset:
    """A complete banner sweep of the world at one point in time."""

    records: List[BannerRecord]

    def __len__(self) -> int:
        return len(self.records)

    def grep(self, keyword: str) -> List[BannerRecord]:
        """Uncapped local filtering over the full dataset."""
        return [r for r in self.records if r.matches_keyword(keyword)]


def run_census(
    world: World, ports: Sequence[int] = DEFAULT_SCAN_PORTS
) -> CensusDataset:
    """Sweep the entire visible world (coverage 1.0)."""
    return CensusDataset(scan_world(world, ports, coverage=1.0))
