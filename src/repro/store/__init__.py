"""repro.store — durable, content-addressed longitudinal results.

The paper's findings are longitudinal (repeated Shodan scans behind
Figure 1, re-confirmations across §4.3); this package is where repeated
study runs accumulate. See :mod:`repro.store.store` for the on-disk
format and :mod:`repro.store.records` for the row flatteners.
"""

from repro.store.records import (
    EpochData,
    INDEX_DIMENSIONS,
    RECORD_KINDS,
    build_epoch,
    confirmation_epoch,
    discovery_epoch,
    study_epoch,
)
from repro.store.segments import EpochStream, SegmentWriter
from repro.store.store import (
    CommitResult,
    EpochManifest,
    ResultsStore,
    STORE_SCHEMA_VERSION,
    SegmentDamage,
    SegmentInfo,
    StoreError,
    UnknownEpoch,
)

__all__ = [
    "CommitResult",
    "EpochData",
    "EpochManifest",
    "EpochStream",
    "INDEX_DIMENSIONS",
    "RECORD_KINDS",
    "ResultsStore",
    "SegmentWriter",
    "STORE_SCHEMA_VERSION",
    "SegmentDamage",
    "SegmentInfo",
    "StoreError",
    "UnknownEpoch",
    "build_epoch",
    "confirmation_epoch",
    "discovery_epoch",
    "study_epoch",
]
