"""One distributed-scan worker: lease → scan → durable commit → repeat.

A worker owns nothing but a coordinator directory. On attach it
rebuilds the scan from the coordinator's identity document — seed,
population identity, fault plan — and verifies the rebuilt scan hashes
to the coordinator's fingerprint, refusing to join across seeds or
identities exactly as PR 4's journaled resume refuses cross-identity
journals. From then on it loops: claim a shard lease, scan the shard's
batches in index order (heartbeating between batches), write the rows
to a durable CRC-framed shard file, and record the commit in the queue
journal. A worker can be SIGKILLed at any instant: its lease expires
and the shard is re-leased; a half-written shard file is atomic-rename
invisible; a committed shard re-scanned by a speculative sibling is a
byte-identical duplicate the reconciler discards.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from repro.coord.queue import (
    IdentityMismatch,
    LeaseLost,
    ShardGrant,
    WorkQueue,
)
from repro.exec.checkpoint import fingerprint as identity_fingerprint
from repro.scan.stream import BatchResult, StreamingScan
from repro.store.merge import write_shard_segment
from repro.world.faults import FaultPlan
from repro.world.population import ShardedPopulationConfig


def scan_from_coordinator(queue: WorkQueue) -> StreamingScan:
    """Rebuild the exact scan a coordinator directory describes.

    The returned scan's own identity must hash back to the
    coordinator's fingerprint; anything else (version skew, a tampered
    document, a forged fingerprint) raises :class:`IdentityMismatch`
    rather than letting a worker scan a subtly different world.
    """
    doc = queue.doc
    identity = doc.get("identity")
    if not isinstance(identity, dict) or identity.get("kind") != "streaming-scan":
        raise IdentityMismatch(
            f"coordinator at {queue.directory} does not describe a "
            "streaming scan"
        )
    if identity.get("seed") != doc.get("seed"):
        raise IdentityMismatch(
            f"coordinator at {queue.directory} is internally inconsistent: "
            f"identity seed {identity.get('seed')!r} vs document seed "
            f"{doc.get('seed')!r}"
        )
    try:
        config = ShardedPopulationConfig.from_identity(
            identity["population"], shard_count=doc["shard_count"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IdentityMismatch(
            f"coordinator identity does not rebuild a population: {exc}"
        ) from exc
    spec = identity.get("fault_plan")
    plan = None if spec is None else FaultPlan.parse(spec)
    scan = StreamingScan(
        doc["seed"],
        config,
        batch_size=doc["batch_size"],
        latency=doc.get("latency", 0.0),
        fault_plan=plan,
    )
    rebuilt = identity_fingerprint(scan.identity())
    if rebuilt != queue.fingerprint:
        raise IdentityMismatch(
            f"rebuilt scan fingerprint {rebuilt[:12]}… does not match the "
            f"coordinator's {queue.fingerprint[:12]}… — refusing to scan "
            "under a mismatched identity"
        )
    return scan


@dataclass
class WorkerSummary:
    """What one worker's run accomplished (for logs and tests)."""

    worker: str
    shards_won: int = 0
    shards_duplicate: int = 0
    shards_released: int = 0
    shards_abandoned: int = 0
    heartbeats: int = 0
    speculative: int = 0
    errors: List[str] = field(default_factory=list)


class ScanWorker:
    """The claim/scan/commit loop over one coordinator directory."""

    def __init__(
        self,
        directory: Path,
        *,
        worker_id: Optional[str] = None,
        poll: float = 0.2,
        clock: Callable[[], float] = time.time,
        after_batch: Optional[Callable[[int, BatchResult], None]] = None,
    ) -> None:
        self.queue = WorkQueue.open(directory, clock=clock)
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.poll = poll
        self.clock = clock
        #: Test seam: called after every scanned batch with
        #: ``(shard, batch_result)`` — the chaos harness kills or wedges
        #: workers here, mid-lease, between durable steps.
        self.after_batch = after_batch
        self.scan = scan_from_coordinator(self.queue)
        self.summary = WorkerSummary(worker=self.worker_id)

    def run(self) -> WorkerSummary:
        """Work until the queue is terminal (all shards done or dead)."""
        while True:
            if self.run_one() is None:
                if self.queue.snapshot().terminal:
                    return self.summary
                time.sleep(self.poll)

    def run_one(self) -> Optional[ShardGrant]:
        """Claim and execute at most one shard (test-sized step)."""
        grant = self.queue.claim(self.worker_id)
        if grant is not None:
            if grant.speculative:
                self.summary.speculative += 1
            self.run_grant(grant)
        return grant

    def run_grant(self, grant: ShardGrant) -> None:
        """Execute one granted lease end to end."""
        shard = grant.shard
        ttl = self.queue.config.lease_ttl
        last_beat = self.clock()

        def progress(batch: BatchResult) -> None:
            nonlocal last_beat
            if self.clock() - last_beat >= ttl / 3.0:
                self.queue.heartbeat(self.worker_id, shard)
                self.summary.heartbeats += 1
                last_beat = self.clock()
            if self.after_batch is not None:
                self.after_batch(shard, batch)

        try:
            result = self.scan.scan_shard(shard, after_batch=progress)
        except LeaseLost:
            # The lease expired under us (hang, clock stall): someone
            # else owns the shard now. Abandon quietly — our result
            # would only be a discarded duplicate.
            self.summary.shards_abandoned += 1
            return
        except Exception as exc:  # noqa: BLE001 - released with the reason
            self.summary.shards_released += 1
            self.summary.errors.append(f"shard {shard}: {exc!r}")
            self.queue.release(self.worker_id, shard, repr(exc))
            return
        path = (
            self.queue.shards_dir
            / f"shard-{shard:05d}.{self.worker_id}.json"
        )
        segment = write_shard_segment(
            path,
            shard=shard,
            fingerprint=self.queue.fingerprint,
            worker=self.worker_id,
            rows=list(result.rows),
            scanned=result.scanned,
            missed=result.missed,
            decoys=result.decoys,
        )
        won = self.queue.commit(
            self.worker_id,
            shard,
            file=path.name,
            rows_sha256=segment.rows_sha256,
            rows=len(segment.rows),
            scanned=result.scanned,
            missed=result.missed,
            decoys=result.decoys,
        )
        if won:
            self.summary.shards_won += 1
        else:
            self.summary.shards_duplicate += 1
