"""repro.coord — crash-tolerant coordination for the distributed scan.

The paper's §3 sweep is a single machine's run; this package distributes
it across independent scanner worker processes that may crash, stall,
or vanish mid-shard, while preserving the streaming engine's contract:
the committed epoch id is the byte-identical content-addressed id a
single-machine scan produces, or the outcome is an explicit
:class:`~repro.coord.coordinator.PartialScanResult` — never a silently
incomplete epoch.

See :mod:`repro.coord.queue` for the durable leased work-queue,
:mod:`repro.coord.worker` for the scanner loop,
:mod:`repro.coord.coordinator` for wait/reconcile, and
:mod:`repro.coord.runner` for spawning a local worker fleet.
"""

from repro.coord.coordinator import (
    Coordinator,
    DistributedScanSummary,
    PartialScanResult,
)
from repro.coord.queue import (
    CoordinationError,
    DeadLetter,
    IdentityMismatch,
    LeaseLost,
    QueueConfig,
    QueueSnapshot,
    ShardGrant,
    WorkQueue,
)
from repro.coord.runner import run_worker, spawn_workers
from repro.coord.worker import ScanWorker, WorkerSummary, scan_from_coordinator

__all__ = [
    "CoordinationError",
    "Coordinator",
    "DeadLetter",
    "DistributedScanSummary",
    "IdentityMismatch",
    "LeaseLost",
    "PartialScanResult",
    "QueueConfig",
    "QueueSnapshot",
    "ScanWorker",
    "ShardGrant",
    "WorkQueue",
    "WorkerSummary",
    "run_worker",
    "scan_from_coordinator",
    "spawn_workers",
]
