"""Typed queries over a results store.

The engine is the read side of the longitudinal subsystem: filters
over stored record rows, the table views, and the epoch diffs. Epoch
*selection* reads the index keys (country, ASN, product, ISP,
category) that each epoch's manifest records, so picking epochs reads
no segment; record-level filtering then happens on the rows of the
chosen epochs alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.query.diff import EpochDiff, diff_epochs
from repro.query.views import available_tables, render_epoch_table
from repro.store import (
    EpochManifest,
    RECORD_KINDS,
    ResultsStore,
    StoreError,
)


@dataclass(frozen=True)
class RecordFilter:
    """A conjunctive record filter over the indexed dimensions."""

    country: Optional[str] = None
    asn: Optional[int] = None
    product: Optional[str] = None
    isp: Optional[str] = None
    category: Optional[str] = None
    #: Minimum fused verdict confidence. Not an indexed dimension: rows
    #: committed without ``record_confidence`` carry no confidence field
    #: and are treated as fully confident (1.0), so they always pass.
    min_confidence: Optional[float] = None

    def constraints(self) -> List[Tuple[str, str]]:
        """(dimension, value-as-string) for every set indexed field."""
        found = []
        for spec in fields(self):
            if spec.name == "min_confidence":
                continue
            value = getattr(self, spec.name)
            if value is not None:
                found.append((spec.name, str(value)))
        return found

    def matches(self, row: Dict[str, Any]) -> bool:
        for dimension, value in self.constraints():
            if str(row.get(dimension)) != value:
                return False
        if self.min_confidence is not None:
            if float(row.get("confidence", 1.0)) < self.min_confidence:
                return False
        return True

    @property
    def empty(self) -> bool:
        return not self.constraints() and self.min_confidence is None


class QueryEngine:
    """Filter / aggregate / diff operations over one results store."""

    def __init__(self, store: ResultsStore) -> None:
        self.store = store

    # ----------------------------------------------------------- selection
    def epoch_ids(
        self, record_filter: Optional[RecordFilter] = None
    ) -> List[str]:
        """Committed epoch ids (oldest first) matching the filter."""
        return [manifest.epoch_id for manifest in self.epochs(record_filter)]

    def epochs(
        self, record_filter: Optional[RecordFilter] = None
    ) -> List[EpochManifest]:
        """Committed manifests (oldest first) matching the filter.

        An epoch is kept when its manifest's keys in each constrained
        dimension hold the filter's value; each constraint narrows the
        manifests the one before it kept. No segment is read here.
        """
        manifests = self.store.manifests()
        if record_filter is None:
            return manifests
        for dimension, value in record_filter.constraints():
            manifests = [
                manifest
                for manifest in manifests
                if value in manifest.keys.get(dimension, ())
            ]
        return manifests

    def latest(self) -> EpochManifest:
        ids = self.store.epoch_ids()
        if not ids:
            raise StoreError(f"store {self.store.root} has no epochs")
        return self.store.manifest(ids[-1])

    def _resolve_epoch(self, epoch: Optional[str]) -> str:
        if epoch is None:
            return self.latest().epoch_id
        return self.store.resolve(epoch)

    # ------------------------------------------------------------- records
    def select(
        self,
        kind: str,
        *,
        epoch: Optional[str] = None,
        record_filter: Optional[RecordFilter] = None,
    ) -> List[Dict[str, Any]]:
        """Record rows of one kind from one epoch (default: newest)."""
        if kind not in RECORD_KINDS:
            raise StoreError(
                f"unknown record kind {kind!r}; one of {RECORD_KINDS}"
            )
        rows = self.store.records(self._resolve_epoch(epoch), kind)
        if record_filter is None or record_filter.empty:
            return rows
        return [row for row in rows if record_filter.matches(row)]

    # -------------------------------------------------------------- tables
    def table(self, name: str, *, epoch: Optional[str] = None) -> str:
        """A rendered table, byte-identical to the live renderers."""
        manifest = self.store.manifest(self._resolve_epoch(epoch))
        return render_epoch_table(self.store, manifest, name)

    def tables_available(self, *, epoch: Optional[str] = None) -> List[str]:
        return available_tables(self.store.manifest(self._resolve_epoch(epoch)))

    # ---------------------------------------------------------------- diff
    def diff(
        self, old: Optional[str] = None, new: Optional[str] = None
    ) -> EpochDiff:
        """Diff two epochs; defaults to the two most recent commits."""
        ids = self.store.epoch_ids()
        if old is None or new is None:
            if len(ids) < 2:
                raise StoreError(
                    "diff needs two committed epochs "
                    f"(store has {len(ids)})"
                )
            old = old if old is not None else ids[-2]
            new = new if new is not None else ids[-1]
        return diff_epochs(self.store, old, new)
