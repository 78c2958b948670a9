"""§5: characterizing what confirmed URL filters actually block.

Runs the global and country-local test lists through the measurement
client "within 30 days of the confirmations", attributes blocked URLs to
vendors via the block-page regex corpus, and aggregates by list category
into the Table 4 matrix (six columns of rights-protected content).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.exec.executor import Executor
from repro.exec.resilience import ResilientRunner
from repro.measure.classifiers.fusion import VerdictEngine
from repro.measure.client import MeasurementClient, UrlTest
from repro.measure.testlists import (
    ListCategory,
    Table4Column,
    TestList,
    build_global_list,
    build_local_list,
)
from repro.world.clock import SimTime
from repro.world.world import World


@dataclass
class CategoryBlockStats:
    """Per-list-category tallies for one characterization run."""

    category: ListCategory
    tested: int = 0
    blocked: int = 0
    #: URLs whose probe failed outright: no verdict either way. These
    #: count in ``tested`` (the attempt happened) but a Table 4 cell
    #: built from them is annotated as partial.
    insufficient: int = 0
    vendors: Dict[str, int] = field(default_factory=dict)
    #: Sum of fused verdict confidences over all tested URLs (a
    #: quarantined probe adds 0.0, lowering the mean).
    confidence_sum: float = 0.0
    #: Classifier name -> number of URLs it contributed a signal for.
    signal_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def measured(self) -> int:
        """Probes that produced an actual field/lab comparison."""
        return self.tested - self.insufficient

    @property
    def block_rate(self) -> float:
        return self.blocked / self.measured if self.measured else 0.0

    @property
    def mean_confidence(self) -> float:
        """Average fused confidence across attempts (1.0 when untested)."""
        return self.confidence_sum / self.tested if self.tested else 1.0


@dataclass
class CharacterizationResult:
    """Table 4 inputs for one (product, ISP) pair."""

    isp_name: str
    asn: int
    country_code: str
    product_name: str
    measured_at: SimTime
    stats: Dict[str, CategoryBlockStats] = field(default_factory=dict)
    tests: List[UrlTest] = field(default_factory=list)

    def blocked_categories(self) -> List[ListCategory]:
        """List categories with at least one blocked URL."""
        return [s.category for s in self.stats.values() if s.blocked > 0]

    def table4_columns(self) -> Set[Table4Column]:
        """The Table 4 cells this row marks."""
        columns: Set[Table4Column] = set()
        for stats in self.stats.values():
            if stats.blocked > 0 and stats.category.table4_column is not None:
                columns.add(stats.category.table4_column)
        return columns

    def blocks_rights_protected_content(self) -> bool:
        """The paper's headline finding for this deployment."""
        return bool(self.table4_columns())

    def vendor_attribution(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for stats in self.stats.values():
            for vendor, count in stats.vendors.items():
                totals[vendor] = totals.get(vendor, 0) + count
        return totals

    @property
    def confidence(self) -> float:
        """Mean fused confidence across every tested URL (1.0 if none)."""
        tested = sum(s.tested for s in self.stats.values())
        if not tested:
            return 1.0
        total = sum(
            getattr(s, "confidence_sum", 0.0) for s in self.stats.values()
        )
        return total / tested

    def signal_summary(self) -> Dict[str, int]:
        """Classifier name -> URLs it contributed to, sorted by name."""
        totals: Dict[str, int] = {}
        for stats in self.stats.values():
            for name, count in getattr(stats, "signal_counts", {}).items():
                totals[name] = totals.get(name, 0) + count
        return dict(sorted(totals.items()))


class ContentCharacterization:
    """Runs the §5 test-list measurement for one ISP."""

    def __init__(
        self,
        world: World,
        *,
        engine: Optional[VerdictEngine] = None,
        executor: Optional[Executor] = None,
        link_latency: float = 0.0,
        resilience: Optional[ResilientRunner] = None,
    ) -> None:
        self._world = world
        self._engine = engine or VerdictEngine()
        self._executor = executor
        self._link_latency = link_latency
        self._resilience = resilience

    def run(
        self,
        isp_name: str,
        product_name: str,
        *,
        global_list: Optional[TestList] = None,
        local_list: Optional[TestList] = None,
    ) -> CharacterizationResult:
        """Test the global + local lists from inside ``isp_name``."""
        world = self._world
        isp = world.isps[isp_name]
        if global_list is None:
            global_list = build_global_list(world)
        if local_list is None:
            local_list = build_local_list(world, isp.country.code)
        client = MeasurementClient(
            world.vantage(isp_name),
            world.lab_vantage(),
            engine=self._engine,
            executor=self._executor,
            link_latency=self._link_latency,
            resilience=self._resilience,
            stage="characterize",
            endpoint=f"{isp_name}/{product_name}",
        )
        result = CharacterizationResult(
            isp_name=isp_name,
            asn=isp.asn,
            country_code=isp.country.code,
            product_name=product_name,
            measured_at=world.now,
        )
        entries = [
            entry
            for test_list in (global_list, local_list)
            for entry in test_list.entries
        ]
        run = client.run_list([entry.url for entry in entries])
        for entry, test in zip(entries, run.tests):
            result.tests.append(test)
            stats = result.stats.setdefault(
                entry.category.name, CategoryBlockStats(entry.category)
            )
            stats.tested += 1
            stats.confidence_sum += test.confidence
            for name in test.comparison.signal_names():
                stats.signal_counts[name] = stats.signal_counts.get(name, 0) + 1
            if test.insufficient:
                stats.insufficient += 1
            elif test.blocked:
                stats.blocked += 1
                vendor = test.vendor or "unattributed"
                stats.vendors[vendor] = stats.vendors.get(vendor, 0) + 1
        return result
