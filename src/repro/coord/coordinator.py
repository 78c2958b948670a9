"""The coordinator side: create the queue, wait, reconcile or degrade.

The coordinator never scans. It owns the directory's identity document,
reaps leases while waiting (so a fleet that dies entirely still
converges to explicit dead letters instead of hanging forever), and —
once the queue is terminal — either reconciles every shard's committed
result into the single content-addressed epoch a one-machine scan
would produce, or returns an explicit :class:`PartialScanResult`.
There is no third outcome: a scan with dead-lettered shards publishes
nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.coord.queue import (
    CoordinationError,
    DeadLetter,
    QueueConfig,
    QueueSnapshot,
    WorkQueue,
)
from repro.coord.worker import scan_from_coordinator
from repro.exec.checkpoint import fingerprint as identity_fingerprint
from repro.scan.stream import StreamingScan
from repro.store.merge import ShardSource, check_shard_set, load_segments


@dataclass(frozen=True)
class PartialScanResult:
    """A distributed scan that ended with unrecoverable shards.

    The explicit degradation the tentpole demands: retry budgets ran
    out on ``dead`` shards, so *no epoch exists* — completed shards'
    results stay in the coordinator directory (re-runnable after the
    operator fixes whatever kept killing workers), but nothing was
    published that could be mistaken for a full scan.
    """

    fingerprint: str
    shard_count: int
    completed_shards: int
    dead: Tuple[DeadLetter, ...]
    duplicates_discarded: int

    @property
    def complete(self) -> bool:
        return False

    def describe(self) -> List[str]:
        lines = [
            f"PARTIAL scan: {self.completed_shards}/{self.shard_count} "
            f"shard(s) completed, {len(self.dead)} dead-lettered — "
            "no epoch committed"
        ]
        for letter in self.dead:
            lines.append(
                f"  shard {letter.shard}: {letter.reason} "
                f"({letter.attempts} attempt(s))"
            )
        return lines


@dataclass(frozen=True)
class DistributedScanSummary:
    """A distributed scan that converged to a committed epoch."""

    epoch_id: str
    created: bool
    shards: int
    workers: Tuple[str, ...]
    duplicates_discarded: int
    scanned: int
    missed: int
    decoys: int
    hits: int
    elapsed_seconds: float

    @property
    def complete(self) -> bool:
        return True


class Coordinator:
    """Lifecycle owner of one distributed scan."""

    def __init__(
        self,
        directory: Path,
        scan: StreamingScan,
        *,
        lease_ttl: float = 30.0,
        straggler_after: Optional[float] = None,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.time,
    ) -> None:
        identity = scan.identity()
        if straggler_after is None:
            straggler_after = 4.0 * lease_ttl
        self.queue = WorkQueue.create(
            directory,
            identity=identity,
            fingerprint=identity_fingerprint(identity),
            seed=scan.population.seed,
            config=QueueConfig(
                shard_count=scan.population.shard_count,
                lease_ttl=lease_ttl,
                straggler_after=straggler_after,
                max_attempts=max_attempts,
                batch_size=scan.batch_size,
                latency=scan.latency,
            ),
            clock=clock,
        )

    @classmethod
    def attach(
        cls, directory: Path, *, clock: Callable[[], float] = time.time
    ) -> "Coordinator":
        """Reattach to an existing directory (status, crash recovery)."""
        instance = cls.__new__(cls)
        instance.queue = WorkQueue.open(directory, clock=clock)
        return instance

    # -------------------------------------------------------------- status
    def status(self) -> QueueSnapshot:
        return self.queue.snapshot()

    def wait(
        self,
        *,
        poll: float = 0.2,
        timeout: Optional[float] = None,
    ) -> QueueSnapshot:
        """Block until every shard is done or dead, reaping as we go."""
        started = time.monotonic()
        while True:
            self.queue.reap()
            snapshot = self.queue.snapshot()
            if snapshot.terminal:
                return snapshot
            if (
                timeout is not None
                and time.monotonic() - started > timeout
            ):
                raise CoordinationError(
                    f"distributed scan did not reach a terminal state "
                    f"within {timeout:.1f}s "
                    f"({len(snapshot.done)}/{snapshot.shard_count} shards "
                    "done)"
                )
            time.sleep(poll)

    # ----------------------------------------------------------- reconcile
    def reconcile(
        self, store: Any
    ) -> Union[DistributedScanSummary, PartialScanResult]:
        """Fold the terminal queue into an epoch — or admit partiality.

        Dead letters short-circuit to :class:`PartialScanResult` before
        any store interaction. Otherwise every commit record (winners
        *and* duplicates) passes :func:`repro.store.merge.check_shard_set`,
        and the scan, rebuilt from the directory as workers rebuild it,
        commits the verified segments in shard order through
        :meth:`StreamingScan.commit`: the single-machine write path,
        hence the single-machine epoch id.
        """
        started = time.perf_counter()
        snapshot = self.queue.snapshot()
        if not snapshot.terminal:
            raise CoordinationError(
                "cannot reconcile: scan is not terminal "
                f"({len(snapshot.done)}/{snapshot.shard_count} shards done)"
            )
        commits = self.queue.commits()
        if snapshot.dead:
            return PartialScanResult(
                fingerprint=self.queue.fingerprint,
                shard_count=snapshot.shard_count,
                completed_shards=len(snapshot.done),
                dead=snapshot.dead,
                duplicates_discarded=snapshot.duplicates,
            )
        scan = scan_from_coordinator(self.queue)
        chosen = check_shard_set(
            snapshot.shard_count,
            [
                ShardSource(
                    shard=commit.shard,
                    path=self.queue.shards_dir / commit.file,
                    rows_sha256=commit.rows_sha256,
                    worker=commit.worker,
                )
                for commit in commits
            ],
        )
        summary = scan.commit(
            store, load_segments(chosen, self.queue.fingerprint)
        )
        return DistributedScanSummary(
            epoch_id=summary.epoch_id,
            created=summary.created,
            shards=summary.batches,
            workers=snapshot.workers,
            duplicates_discarded=len(commits) - len(chosen),
            scanned=summary.scanned,
            missed=summary.missed,
            decoys=summary.decoys,
            hits=summary.hits,
            elapsed_seconds=time.perf_counter() - started,
        )

    def run(
        self,
        store: Any,
        *,
        poll: float = 0.2,
        timeout: Optional[float] = None,
    ) -> Union[DistributedScanSummary, PartialScanResult]:
        """Wait for the fleet, then reconcile (the one-call entry point)."""
        self.wait(poll=poll, timeout=timeout)
        return self.reconcile(store)
