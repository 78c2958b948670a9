"""Durable, leased shard work-queue for the distributed scan.

One coordinator directory is the whole coordination state — no broker,
no sockets, nothing resident. Worker processes (possibly on different
machines sharing a filesystem) attach, lease shards, heartbeat, and
commit results; every transition is one CRC-framed record appended to
an event journal, so the queue's state is a pure fold over the journal
and survives any process dying at any instant:

``DIR/coordinator.json``
    The scan's identity document: which world (seed + population
    identity + fault plan), hashed into the same fingerprint the
    checkpoint layer uses, plus the execution policy (shard count,
    batch size, lease TTL, straggler threshold, retry budget). Workers
    refuse to join across identities — the distributed analogue of
    PR 4's resume-identity refusal.
``DIR/queue.jsonl``
    The event journal: ``lease`` / ``heartbeat`` / ``release`` /
    ``expire`` / ``commit`` / ``dead`` records with the
    :mod:`repro.exec.journal` envelope (CRC32 over the canonical body,
    schema version, monotonic sequence). Damage recovers to the
    longest valid prefix; anything a truncated suffix forgets (a lease,
    even a commit) is merely re-executed — shard content is a pure
    function of the scan identity, so replayed work is idempotent.
``DIR/lock``
    An ``flock`` file serializing journal mutations across processes.
``DIR/shards/``
    Workers' durable per-shard result files
    (:func:`repro.store.merge.write_shard_segment`).

Lease lifecycle: ``claim`` grants the lowest pending shard with a
wall-clock deadline; ``heartbeat`` extends it; a deadline passing means
the holder is presumed dead (SIGKILL, hang, partition) and ``reap``
returns the shard to the pending pool — or to the dead-letter ledger
once its retry budget is exhausted. A lease held past the straggler
threshold makes the shard eligible for *speculative* re-execution by
an idle worker: first valid commit wins, later duplicates are recorded
and discarded idempotently at reconcile time.
"""

from __future__ import annotations

import fcntl
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.exec.journal import (
    JournalRecord,
    JournalWriter,
    atomic_write,
    canonical,
)

#: Bump on any incompatible change to the coordinator document or the
#: queue event payloads.
COORD_SCHEMA_VERSION = 1

COORDINATOR_FILENAME = "coordinator.json"
QUEUE_FILENAME = "queue.jsonl"
LOCK_FILENAME = "lock"
SHARDS_DIRNAME = "shards"


class CoordinationError(Exception):
    """The coordination layer could not complete an operation."""


class IdentityMismatch(CoordinationError):
    """A worker or coordinator tried to join across scan identities."""


class LeaseLost(CoordinationError):
    """The caller's lease expired (and may have been reassigned)."""


@dataclass(frozen=True)
class QueueConfig:
    """Execution policy persisted in ``coordinator.json``.

    None of these affect the committed epoch id — they are how the work
    runs, not what the work is — which is why they live beside, not
    inside, the scan identity.
    """

    shard_count: int
    lease_ttl: float = 30.0
    straggler_after: float = 120.0
    max_attempts: int = 3
    batch_size: int = 1000
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        if self.straggler_after <= 0:
            raise ValueError("straggler_after must be > 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")


@dataclass(frozen=True)
class ShardGrant:
    """One granted lease: scan this shard, heartbeat before deadline."""

    shard: int
    attempt: int
    deadline: float
    speculative: bool


@dataclass(frozen=True)
class ShardCommit:
    """One worker's committed result for a shard."""

    shard: int
    worker: str
    file: str
    rows_sha256: str
    rows: int
    scanned: int
    missed: int
    decoys: int


@dataclass
class Lease:
    """A live claim on a shard by one worker."""

    worker: str
    deadline: float
    granted: float
    attempt: int
    speculative: bool


@dataclass
class ShardState:
    """Folded state of one shard (derived, never persisted directly)."""

    shard: int
    attempts: int = 0
    leases: Dict[str, Lease] = field(default_factory=dict)
    commits: List[ShardCommit] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    dead_reason: Optional[str] = None

    @property
    def done(self) -> bool:
        return bool(self.commits)

    @property
    def dead(self) -> bool:
        return self.dead_reason is not None and not self.done

    @property
    def winner(self) -> Optional[ShardCommit]:
        return self.commits[0] if self.commits else None

    @property
    def conflicting(self) -> bool:
        return len({commit.rows_sha256 for commit in self.commits}) > 1


@dataclass(frozen=True)
class LeaseView:
    """One live lease as the status report shows it."""

    shard: int
    worker: str
    attempt: int
    speculative: bool
    age: float
    remaining: float

    @property
    def expired(self) -> bool:
        return self.remaining <= 0.0


@dataclass(frozen=True)
class DeadLetter:
    """A shard whose retry budget is exhausted."""

    shard: int
    attempts: int
    reason: str


@dataclass(frozen=True)
class QueueSnapshot:
    """Read-only view of the whole queue at one instant."""

    now: float
    shard_count: int
    pending: Tuple[int, ...]
    leases: Tuple[LeaseView, ...]
    done: Tuple[int, ...]
    dead: Tuple[DeadLetter, ...]
    stragglers: Tuple[int, ...]
    duplicates: int
    conflicts: Tuple[int, ...]
    workers: Tuple[str, ...]

    @property
    def terminal(self) -> bool:
        """Every shard has either a committed result or a dead letter."""
        return len(self.done) + len(self.dead) == self.shard_count

    @property
    def complete(self) -> bool:
        return self.terminal and not self.dead

    def describe(self) -> List[str]:
        lines = [
            f"shards: {self.shard_count} total — {len(self.done)} done, "
            f"{len(self.pending)} pending, {len(self.leases)} leased, "
            f"{len(self.dead)} dead-lettered"
        ]
        for lease in self.leases:
            state = "EXPIRED" if lease.expired else f"{lease.remaining:.1f}s left"
            flavor = " speculative" if lease.speculative else ""
            straggler = " STRAGGLER" if lease.shard in self.stragglers else ""
            lines.append(
                f"  shard {lease.shard}: leased{flavor} by {lease.worker} "
                f"(attempt {lease.attempt}, {lease.age:.1f}s old, "
                f"{state}){straggler}"
            )
        for letter in self.dead:
            lines.append(
                f"  shard {letter.shard}: DEAD after {letter.attempts} "
                f"attempt(s) — {letter.reason}"
            )
        if self.duplicates:
            lines.append(
                f"  {self.duplicates} duplicate completion(s) discarded"
            )
        for shard in self.conflicts:
            lines.append(f"  shard {shard}: CONFLICTING duplicate commits")
        if self.workers:
            lines.append("workers seen: " + ", ".join(self.workers))
        lines.append(
            "state: "
            + (
                "complete"
                if self.complete
                else "partial (dead letters)" if self.terminal else "running"
            )
        )
        return lines


class WorkQueue:
    """The durable queue over one coordinator directory.

    Every mutation takes the directory lock, folds the journal, decides,
    and appends — so concurrent workers always act on the latest durable
    state and two processes can never both win the same transition.
    State is O(journal) to fold; at scan scale (tens to hundreds of
    shards, heartbeats every TTL/3) the journal stays small.
    """

    def __init__(
        self, directory: Path, *, clock: Callable[[], float] = time.time
    ) -> None:
        self.directory = Path(directory)
        self.clock = clock
        self._doc: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------ locations
    @property
    def coordinator_path(self) -> Path:
        return self.directory / COORDINATOR_FILENAME

    @property
    def queue_path(self) -> Path:
        return self.directory / QUEUE_FILENAME

    @property
    def lock_path(self) -> Path:
        return self.directory / LOCK_FILENAME

    @property
    def shards_dir(self) -> Path:
        return self.directory / SHARDS_DIRNAME

    # ------------------------------------------------------- create / open
    @classmethod
    def create(
        cls,
        directory: Path,
        *,
        identity: Dict[str, Any],
        fingerprint: str,
        seed: int,
        config: QueueConfig,
        clock: Callable[[], float] = time.time,
    ) -> "WorkQueue":
        """Initialize a coordinator directory, or attach to a matching one.

        Attaching to an existing directory is the coordinator crash
        story: re-running the same scan command resumes the queue where
        it stood. Attaching with a *different* scan identity raises
        :class:`IdentityMismatch` — stored execution policy wins over
        the caller's on attach, so a resumed coordinator cannot quietly
        change TTLs mid-flight.
        """
        queue = cls(directory, clock=clock)
        existing = queue._load_doc(required=False)
        if existing is not None:
            if existing.get("fingerprint") != fingerprint:
                raise IdentityMismatch(
                    f"coordinator at {queue.directory} was created for a "
                    f"different scan identity (fingerprint "
                    f"{existing.get('fingerprint', '?')[:12]}… vs "
                    f"{fingerprint[:12]}…) — refusing to coordinate "
                    "across identities"
                )
            return queue
        queue.directory.mkdir(parents=True, exist_ok=True)
        queue.shards_dir.mkdir(exist_ok=True)
        doc = {
            "schema": COORD_SCHEMA_VERSION,
            "kind": "scan-coordinator",
            "identity": identity,
            "fingerprint": fingerprint,
            "seed": seed,
            "shard_count": config.shard_count,
            "lease_ttl": config.lease_ttl,
            "straggler_after": config.straggler_after,
            "max_attempts": config.max_attempts,
            "batch_size": config.batch_size,
            "latency": config.latency,
        }
        atomic_write(queue.coordinator_path, canonical(doc).encode("utf-8"))
        queue._doc = doc
        return queue

    @classmethod
    def open(
        cls,
        directory: Path,
        *,
        clock: Callable[[], float] = time.time,
    ) -> "WorkQueue":
        """Attach to an existing coordinator directory (workers do this)."""
        queue = cls(directory, clock=clock)
        queue._load_doc(required=True)
        queue.shards_dir.mkdir(parents=True, exist_ok=True)
        return queue

    def _load_doc(self, *, required: bool) -> Optional[Dict[str, Any]]:
        if self._doc is not None:
            return self._doc
        path = self.coordinator_path
        if not path.exists():
            if required:
                raise CoordinationError(
                    f"no coordinator at {self.directory} "
                    f"(missing {COORDINATOR_FILENAME})"
                )
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CoordinationError(
                f"coordinator document at {path} is unreadable: {exc}"
            ) from exc
        if doc.get("schema") != COORD_SCHEMA_VERSION:
            raise CoordinationError(
                f"coordinator document schema {doc.get('schema')!r} "
                f"(this reader speaks v{COORD_SCHEMA_VERSION})"
            )
        self._doc = doc
        return doc

    # ------------------------------------------------------------ document
    @property
    def doc(self) -> Dict[str, Any]:
        doc = self._load_doc(required=True)
        assert doc is not None
        return doc

    @property
    def identity(self) -> Dict[str, Any]:
        return self.doc["identity"]

    @property
    def fingerprint(self) -> str:
        return self.doc["fingerprint"]

    @property
    def seed(self) -> int:
        return self.doc["seed"]

    @property
    def config(self) -> QueueConfig:
        doc = self.doc
        return QueueConfig(
            shard_count=doc["shard_count"],
            lease_ttl=doc["lease_ttl"],
            straggler_after=doc["straggler_after"],
            max_attempts=doc["max_attempts"],
            batch_size=doc["batch_size"],
            latency=doc.get("latency", 0.0),
        )

    # ------------------------------------------------------------- locking
    @contextmanager
    def _locked(self) -> Iterator[None]:
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.lock_path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------- journal
    def _read(self) -> Tuple[JournalWriter, List[JournalRecord]]:
        """Longest valid journal prefix, and a writer positioned after it.

        Must run under the lock. Resuming truncates any damaged suffix,
        which keeps the sequence numbering contiguous; whatever that
        suffix recorded is simply re-executed (idempotent by
        construction).
        """
        writer, records, _report = JournalWriter.resume(self.queue_path)
        return writer, records

    @staticmethod
    def _append(
        writer: JournalWriter, events: List[Tuple[str, Dict[str, Any]]]
    ) -> None:
        """Append ``events`` with one fsync: only the last append is
        durable, and its fsync persists the earlier ones too."""
        with writer:
            for count, (kind, payload) in enumerate(events, start=1):
                writer.append(kind, payload, durable=count == len(events))

    # ---------------------------------------------------------------- fold
    def _fold(self, records: List[JournalRecord]) -> Dict[int, ShardState]:
        shards = {
            shard: ShardState(shard)
            for shard in range(self.config.shard_count)
        }
        for record in records:
            self._apply(shards, record.kind, record.payload)
        return shards

    @staticmethod
    def _apply(
        shards: Dict[int, ShardState], kind: str, payload: Dict[str, Any]
    ) -> None:
        state = shards.get(payload.get("shard", -1))
        if state is None:
            return
        if kind == "lease":
            state.attempts = max(state.attempts, payload["attempt"])
            state.leases[payload["worker"]] = Lease(
                worker=payload["worker"],
                deadline=payload["deadline"],
                granted=payload["granted"],
                attempt=payload["attempt"],
                speculative=payload.get("speculative", False),
            )
        elif kind == "heartbeat":
            lease = state.leases.get(payload["worker"])
            if lease is not None:
                lease.deadline = payload["deadline"]
        elif kind == "expire":
            state.leases.pop(payload["worker"], None)
        elif kind == "release":
            state.leases.pop(payload["worker"], None)
            state.failures.append(payload.get("reason", "released"))
        elif kind == "commit":
            state.leases.pop(payload["worker"], None)
            state.commits.append(
                ShardCommit(
                    shard=payload["shard"],
                    worker=payload["worker"],
                    file=payload["file"],
                    rows_sha256=payload["rows_sha256"],
                    rows=payload["rows"],
                    scanned=payload["scanned"],
                    missed=payload["missed"],
                    decoys=payload["decoys"],
                )
            )
        elif kind == "dead":
            state.dead_reason = payload.get("reason", "retry budget exhausted")

    # ------------------------------------------------------------- reaping
    def _reap_events(
        self, shards: Dict[int, ShardState], now: float
    ) -> List[Tuple[str, Dict[str, Any]]]:
        """Expire overdue leases; dead-letter budget-exhausted shards.

        Pure over the folded state (which it also updates in place so
        the caller can decide grants against the post-reap view); the
        caller appends the returned events under the same lock.
        """
        config = self.config
        events: List[Tuple[str, Dict[str, Any]]] = []
        for state in shards.values():
            if state.done or state.dead:
                continue
            for worker, lease in list(state.leases.items()):
                if lease.deadline <= now:
                    events.append(
                        ("expire", {"shard": state.shard, "worker": worker})
                    )
                    state.leases.pop(worker)
                    state.failures.append(
                        f"lease by {worker} expired "
                        f"(attempt {lease.attempt})"
                    )
            if (
                not state.leases
                and state.attempts >= config.max_attempts
            ):
                last = state.failures[-1] if state.failures else "unknown"
                reason = (
                    f"retry budget exhausted after {state.attempts} "
                    f"lease(s); last failure: {last}"
                )
                events.append(
                    (
                        "dead",
                        {
                            "shard": state.shard,
                            "attempts": state.attempts,
                            "reason": reason,
                        },
                    )
                )
                state.dead_reason = reason
        return events

    def reap(self) -> int:
        """Expire overdue leases and dead-letter exhausted shards.

        Workers reap implicitly on every claim; the coordinator's wait
        loop calls this explicitly so progress (or explicit partiality)
        does not depend on any worker surviving. Returns the number of
        events appended.
        """
        with self._locked():
            writer, records = self._read()
            shards = self._fold(records)
            events = self._reap_events(shards, self.clock())
            self._append(writer, events)
            return len(events)

    # ------------------------------------------------------------ protocol
    def claim(self, worker: str) -> Optional[ShardGrant]:
        """Lease the next shard for ``worker``; None when nothing to do.

        Pending shards are granted lowest-index first. With no pending
        shard, a lease held longer than the straggler threshold makes
        its shard eligible for a *speculative* duplicate lease (never
        to the worker already holding it). A returned ``None`` means
        "idle, but the scan may not be finished" — poll
        :meth:`snapshot` for terminality.
        """
        now = self.clock()
        config = self.config
        with self._locked():
            writer, records = self._read()
            shards = self._fold(records)
            events = self._reap_events(shards, now)
            grant: Optional[ShardGrant] = None
            candidate: Optional[ShardState] = None
            for state in shards.values():
                if state.done or state.dead or state.leases:
                    continue
                if state.attempts >= config.max_attempts:
                    continue
                candidate = state
                break
            speculative = False
            if candidate is None:
                # Straggler pass: duplicate the longest-held live lease.
                oldest: Optional[Tuple[float, ShardState]] = None
                for state in shards.values():
                    if state.done or state.dead or not state.leases:
                        continue
                    if worker in state.leases:
                        continue
                    if state.attempts >= config.max_attempts:
                        continue
                    granted = min(
                        lease.granted for lease in state.leases.values()
                    )
                    if now - granted < config.straggler_after:
                        continue
                    if oldest is None or granted < oldest[0]:
                        oldest = (granted, state)
                if oldest is not None:
                    candidate = oldest[1]
                    speculative = True
            if candidate is not None:
                attempt = candidate.attempts + 1
                deadline = now + config.lease_ttl
                events.append(
                    (
                        "lease",
                        {
                            "shard": candidate.shard,
                            "worker": worker,
                            "attempt": attempt,
                            "deadline": deadline,
                            "granted": now,
                            "speculative": speculative,
                        },
                    )
                )
                grant = ShardGrant(
                    shard=candidate.shard,
                    attempt=attempt,
                    deadline=deadline,
                    speculative=speculative,
                )
            self._append(writer, events)
            return grant

    def heartbeat(self, worker: str, shard: int) -> float:
        """Extend ``worker``'s lease on ``shard``; returns the deadline.

        Raises :class:`LeaseLost` if the lease expired or the shard was
        already settled by someone else — the worker should abandon the
        shard (its eventual result would be a discarded duplicate
        anyway, but abandoning saves the work).
        """
        now = self.clock()
        with self._locked():
            writer, records = self._read()
            shards = self._fold(records)
            state = shards.get(shard)
            lease = state.leases.get(worker) if state is not None else None
            if state is None or state.done or state.dead or lease is None:
                raise LeaseLost(
                    f"worker {worker} no longer holds shard {shard}"
                )
            if lease.deadline <= now:
                raise LeaseLost(
                    f"worker {worker} lease on shard {shard} expired "
                    f"{now - lease.deadline:.1f}s ago"
                )
            deadline = now + self.config.lease_ttl
            self._append(
                writer,
                [
                    (
                        "heartbeat",
                        {
                            "shard": shard,
                            "worker": worker,
                            "deadline": deadline,
                        },
                    )
                ],
            )
            return deadline

    def commit(
        self,
        worker: str,
        shard: int,
        *,
        file: str,
        rows_sha256: str,
        rows: int,
        scanned: int,
        missed: int,
        decoys: int,
    ) -> bool:
        """Record a completed shard; True if this commit is the winner.

        A commit is accepted even from an expired lease — the result is
        deterministic, so validity does not depend on lease tenure —
        but only the *first* commit per shard wins; later ones are
        recorded for the duplicate/conflict ledger and discarded at
        reconcile time.
        """
        with self._locked():
            writer, records = self._read()
            shards = self._fold(records)
            state = shards[shard]
            won = not state.done
            self._append(
                writer,
                [
                    (
                        "commit",
                        {
                            "shard": shard,
                            "worker": worker,
                            "file": file,
                            "rows_sha256": rows_sha256,
                            "rows": rows,
                            "scanned": scanned,
                            "missed": missed,
                            "decoys": decoys,
                        },
                    )
                ],
            )
            return won

    def release(self, worker: str, shard: int, reason: str) -> None:
        """Give a shard back (task raised); may dead-letter it."""
        with self._locked():
            writer, records = self._read()
            shards = self._fold(records)
            events: List[Tuple[str, Dict[str, Any]]] = [
                ("release", {"shard": shard, "worker": worker, "reason": reason})
            ]
            self._apply(shards, *events[0])
            events.extend(self._reap_events(shards, self.clock()))
            self._append(writer, events)

    # -------------------------------------------------------------- status
    def commits(self) -> List[ShardCommit]:
        """Every commit record, journal order (winners and duplicates)."""
        with self._locked():
            _writer, records = self._read()
        shards = self._fold(records)
        out: List[ShardCommit] = []
        for shard in sorted(shards):
            out.extend(shards[shard].commits)
        return out

    def snapshot(self) -> QueueSnapshot:
        """Read-only view: leases, stragglers, dead letters, duplicates."""
        now = self.clock()
        config = self.config
        with self._locked():
            _writer, records = self._read()
        shards = self._fold(records)
        pending: List[int] = []
        leases: List[LeaseView] = []
        done: List[int] = []
        dead: List[DeadLetter] = []
        stragglers: List[int] = []
        conflicts: List[int] = []
        duplicates = 0
        workers: List[str] = []
        for shard in sorted(shards):
            state = shards[shard]
            for commit in state.commits:
                if commit.worker not in workers:
                    workers.append(commit.worker)
            for worker in state.leases:
                if worker not in workers:
                    workers.append(worker)
            if state.done:
                done.append(shard)
                duplicates += len(state.commits) - 1
                if state.conflicting:
                    conflicts.append(shard)
                continue
            if state.dead:
                dead.append(
                    DeadLetter(shard, state.attempts, state.dead_reason or "")
                )
                continue
            if not state.leases:
                pending.append(shard)
                continue
            oldest = min(lease.granted for lease in state.leases.values())
            if now - oldest >= config.straggler_after:
                stragglers.append(shard)
            for lease in state.leases.values():
                leases.append(
                    LeaseView(
                        shard=shard,
                        worker=lease.worker,
                        attempt=lease.attempt,
                        speculative=lease.speculative,
                        age=now - lease.granted,
                        remaining=lease.deadline - now,
                    )
                )
        return QueueSnapshot(
            now=now,
            shard_count=config.shard_count,
            pending=tuple(pending),
            leases=tuple(leases),
            done=tuple(done),
            dead=tuple(dead),
            stragglers=tuple(stragglers),
            duplicates=duplicates,
            conflicts=tuple(conflicts),
            workers=tuple(workers),
        )
