"""Content-addressed, append-only epoch store.

The durable half of the longitudinal story: every completed (or
partial) study run is committed as an immutable *epoch* — the on-disk
analogue of one of the paper's repeated Shodan scans (Figure 1) or
re-confirmations (§4.3 re-confirms SmartFilter in Etisalat in 9/2012
and again in 4/2013). Layout under the store root::

    epochs/<epoch-id>/manifest.json     identity, window, segment digests
    epochs/<epoch-id>/<kind>.seg        zlib-compressed canonical JSON rows
    epochs.jsonl                        append-only commit log (CRC lines)

The epoch id is the SHA-256 of the manifest's canonical core (identity
fingerprint, seed, sim-clock window, per-segment digests, index keys) —
so identical results hash to the same epoch, committing is idempotent,
and two runs of the same study at different ``--workers`` counts land on
byte-identical epochs. Segments carry a CRC32 and a SHA-256 over their
raw canonical JSON; reads verify both, and any mismatch (torn file,
flipped byte) raises :class:`SegmentDamage` instead of returning
silently wrong science.

Every write goes through :mod:`repro.exec.journal`. An epoch is built
in a staging directory by :class:`~repro.store.segments.EpochStream`
(:meth:`ResultsStore.commit` streams through one too) and published
with :func:`~repro.exec.journal.publish_directory`; the commit log is a
framed log.

Secondary indexes (country, ASN, product, ISP, category) are a pure
function of the manifests, so they are never written: each instance
folds them in memory. A lookup folds in only the manifests committed
since this instance last looked, or every manifest when the committed
order no longer extends the one it folded (after log damage, say). An
``indexes/`` directory left by an older version is ignored.

A commit reads back only what it adds, not the history before it: it
appends to the epoch order this instance last read or wrote, unless
the log's size and mtime show that the log changed since, in which
case it reads the whole log again. The bytes written are the same
either way.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.journal import (
    RecoveryReport,
    append_frames,
    canonical,
    read_frames,
    truncate_damaged_suffix,
)
from repro.store.records import INDEX_DIMENSIONS, EpochData

#: Bump on any incompatible change to manifests, segments, or the
#: commit log. Indexes are not stored, so they never need a bump.
STORE_SCHEMA_VERSION = 1

#: dimension -> index key -> epoch ids in commit order.
_Indexes = Dict[str, Dict[str, List[str]]]

EPOCHS_DIRNAME = "epochs"
COMMIT_LOG_FILENAME = "epochs.jsonl"
MANIFEST_FILENAME = "manifest.json"
SEGMENT_SUFFIX = ".seg"


class StoreError(Exception):
    """The store could not complete an operation."""


class SegmentDamage(StoreError):
    """A stored segment failed verification (torn write, bit flip)."""


class UnknownEpoch(StoreError):
    """No committed epoch matches the requested id."""


@dataclass(frozen=True)
class SegmentInfo:
    """Digests and sizes for one stored record segment."""

    file: str
    count: int
    crc32: int
    sha256: str
    raw_bytes: int
    stored_bytes: int

    def to_document(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "count": self.count,
            "crc32": self.crc32,
            "sha256": self.sha256,
            "raw_bytes": self.raw_bytes,
            "stored_bytes": self.stored_bytes,
        }

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "SegmentInfo":
        return cls(
            file=document["file"],
            count=document["count"],
            crc32=document["crc32"],
            sha256=document["sha256"],
            raw_bytes=document["raw_bytes"],
            stored_bytes=document["stored_bytes"],
        )


@dataclass(frozen=True)
class EpochManifest:
    """One committed epoch's metadata (never its row payload)."""

    epoch_id: str
    fingerprint: str
    seed: int
    identity: Dict[str, Any]
    window_start: int
    window_end: int
    partial: Tuple[str, ...]
    segments: Dict[str, SegmentInfo]
    keys: Dict[str, Tuple[str, ...]]

    @property
    def short_id(self) -> str:
        return self.epoch_id[:12]

    def core_document(self) -> Dict[str, Any]:
        """The hashed portion of the manifest (excludes the id itself)."""
        return {
            "schema": STORE_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "identity": self.identity,
            "window": {"start": self.window_start, "end": self.window_end},
            "partial": list(self.partial),
            "segments": {
                kind: info.to_document()
                for kind, info in sorted(self.segments.items())
            },
            "keys": {dim: list(vals) for dim, vals in sorted(self.keys.items())},
        }

    def to_document(self) -> Dict[str, Any]:
        document = self.core_document()
        document["epoch"] = self.epoch_id
        return document

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "EpochManifest":
        if document.get("schema") != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"manifest schema skew (found v{document.get('schema')}, "
                f"reader v{STORE_SCHEMA_VERSION})"
            )
        return cls(
            epoch_id=document["epoch"],
            fingerprint=document["fingerprint"],
            seed=document["seed"],
            identity=document["identity"],
            window_start=document["window"]["start"],
            window_end=document["window"]["end"],
            partial=tuple(document.get("partial", ())),
            segments={
                kind: SegmentInfo.from_document(info)
                for kind, info in document["segments"].items()
            },
            keys={
                dim: tuple(vals)
                for dim, vals in document.get("keys", {}).items()
            },
        )

    def summary(self) -> Dict[str, Any]:
        """The listing-sized view served by ``GET /epochs``."""
        return {
            "epoch": self.epoch_id,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "window": {
                "start_minutes": self.window_start,
                "end_minutes": self.window_end,
            },
            "partial": list(self.partial),
            "records": {
                kind: info.count for kind, info in sorted(self.segments.items())
            },
            "keys": {dim: list(vals) for dim, vals in sorted(self.keys.items())},
        }


@dataclass(frozen=True)
class CommitResult:
    """What :meth:`ResultsStore.commit` did."""

    epoch_id: str
    created: bool  # False: identical epoch was already committed
    path: Path


class ResultsStore:
    """Append-only longitudinal results store rooted at one directory."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._epochs_dir = self.root / EPOCHS_DIRNAME
        self._log_path = self.root / COMMIT_LOG_FILENAME
        self._epochs_dir.mkdir(parents=True, exist_ok=True)
        self._manifest_cache: Dict[str, EpochManifest] = {}
        # (log mtime_ns, log size) -> epoch order, so neither the
        # read-heavy serving path nor a commit re-parses the commit log.
        # Any append or rewrite changes the stat token; only clean
        # (non-dirty) reads are cached, and a commit's own append
        # refreshes the entry only if the log grew by exactly the bytes
        # it wrote (otherwise another writer appended too: drop it).
        self._order_cache: Optional[Tuple[Tuple[int, int], List[str]]] = None
        # (log stat token, content_state digest), kept only while the
        # order cache holds a clean read under the same token.
        self._state_cache: Optional[Tuple[Tuple[int, int], str]] = None
        # (epoch order, dimension -> key -> epoch ids) as last folded.
        # Replaced whole, never changed in place, so a reader holding
        # the old value keeps a consistent one. Threads that fold at
        # once each answer from their own fold; whichever stores last
        # wins, which can only cost a later lookup a refold, so no lock.
        self._indexes: Tuple[List[str], _Indexes] = (
            [],
            {dimension: {} for dimension in INDEX_DIMENSIONS},
        )

    # ------------------------------------------------------------- commits
    def commit(self, epoch: EpochData) -> CommitResult:
        """Durably commit an epoch; idempotent for identical content."""
        with self.begin_stream(
            identity=epoch.identity,
            fingerprint=epoch.fingerprint,
            seed=epoch.seed,
            window_start=epoch.window[0],
        ) as stream:
            for kind, rows in sorted(epoch.records.items()):
                writer = stream.writer(kind)
                for row in rows:
                    writer.write(row)
            return stream.finalize(
                window_end=epoch.window[1], partial=epoch.partial
            )

    def begin_stream(
        self,
        *,
        identity: Dict[str, Any],
        fingerprint: str,
        seed: int,
        window_start: int,
    ):
        """Open a streaming epoch (rows written incrementally to disk).

        Returns an :class:`repro.store.segments.EpochStream`, the one
        path by which epochs are published (:meth:`commit` streams an
        in-memory epoch through it).
        """
        from repro.store.segments import EpochStream

        return EpochStream(
            self,
            identity=identity,
            fingerprint=fingerprint,
            seed=seed,
            window_start=window_start,
        )

    @staticmethod
    def _seal_manifest(
        *,
        fingerprint: str,
        seed: int,
        identity: Dict[str, Any],
        window_start: int,
        window_end: int,
        partial: Tuple[str, ...],
        segments: Dict[str, SegmentInfo],
        keys: Dict[str, Tuple[str, ...]],
    ) -> EpochManifest:
        """Hash a manifest core into its content-addressed epoch id."""
        unsealed = EpochManifest(
            epoch_id="",
            fingerprint=fingerprint,
            seed=seed,
            identity=identity,
            window_start=window_start,
            window_end=window_end,
            partial=partial,
            segments=segments,
            keys=keys,
        )
        epoch_id = hashlib.sha256(
            canonical(unsealed.core_document()).encode("utf-8")
        ).hexdigest()
        return EpochManifest(
            epoch_id=epoch_id,
            fingerprint=fingerprint,
            seed=seed,
            identity=identity,
            window_start=window_start,
            window_end=window_end,
            partial=partial,
            segments=segments,
            keys=keys,
        )

    def _register_commit(
        self, manifest: EpochManifest, *, created: bool
    ) -> None:
        """Log a published epoch.

        ``created`` is False when the epoch directory was already in
        place. That is either an identical epoch committed before (a
        no-op) or a retry of a commit whose log append failed after the
        rename, which is logged now.
        """
        self._manifest_cache[manifest.epoch_id] = manifest
        self._append_commit_log(manifest.epoch_id, created=created)

    # ----------------------------------------------------------- commit log
    def _append_commit_log(self, epoch_id: str, *, created: bool) -> None:
        """Log ``epoch_id`` and any orphans, unless already logged.

        A damaged suffix is truncated first, so the appended records
        continue the valid prefix and the next read is clean again.
        Orphans are epoch directories whose log append never landed.
        A newly created epoch is the newest commit, so they precede it;
        a retried commit is the oldest one still pending, so it
        precedes them.
        """
        token = self._log_stat_token()
        cached = self._order_cache
        if token is not None and cached is not None and cached[0] == token:
            order, size = cached[1], token[1]
            if epoch_id in order:
                return
        else:
            order, report = self._read_log()
            if epoch_id in order:
                return
            truncate_damaged_suffix(self._log_path, report)
            size = report.bytes_kept
        orphans = self._orphaned_epochs(set(order) | {epoch_id})
        pending = orphans + [epoch_id] if created else [epoch_id] + orphans
        written = append_frames(
            self._log_path,
            (
                {"seq": seq, "v": STORE_SCHEMA_VERSION, "epoch": pending_id}
                for seq, pending_id in enumerate(pending, start=len(order))
            ),
        )
        token = self._log_stat_token()
        if token is not None and token[1] == size + written:
            self._order_cache = (token, order + pending)
        else:
            self._order_cache = None

    def _read_commit_log(self) -> List[str]:
        """Epoch ids in commit order.

        The log's longest valid prefix is kept; committed epoch
        directories missing from that prefix are appended in
        sorted-name order so an epoch can never become unreachable
        through log damage alone.
        """
        token = self._log_stat_token()
        if token is not None and self._order_cache is not None:
            if self._order_cache[0] == token:
                return list(self._order_cache[1])
        order, report = self._read_log()
        extras = self._orphaned_epochs(set(order))
        order.extend(extras)
        if report.clean and not extras and token is not None:
            self._order_cache = (token, list(order))
        return order

    def _log_stat_token(self) -> Optional[Tuple[int, int]]:
        try:
            stat = os.stat(self._log_path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _read_log(self) -> Tuple[List[str], RecoveryReport]:
        """The log's longest valid prefix, without orphan recovery."""
        return read_frames(
            self._log_path, version=STORE_SCHEMA_VERSION, decode=_logged_epoch
        )

    def _orphaned_epochs(self, known: set) -> List[str]:
        """Committed epoch directories absent from ``known``, by name.

        Names are tested first, so only an unknown entry costs a stat.
        """
        with os.scandir(self._epochs_dir) as entries:
            return sorted(
                entry.name
                for entry in entries
                if not entry.name.startswith(".")
                and entry.name not in known
                and entry.is_dir()
                and os.path.exists(os.path.join(entry.path, MANIFEST_FILENAME))
            )

    # -------------------------------------------------------------- reading
    def epoch_ids(self) -> List[str]:
        """Committed epoch ids, oldest first."""
        return self._read_commit_log()

    def __len__(self) -> int:
        return len(self.epoch_ids())

    def resolve(self, ref: str) -> str:
        """Resolve a full id or unique prefix to a committed epoch id."""
        ids = self.epoch_ids()
        if ref in ids:
            return ref
        matches = [epoch_id for epoch_id in ids if epoch_id.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise UnknownEpoch(f"no epoch matches {ref!r}")
        raise StoreError(
            f"ambiguous epoch prefix {ref!r} ({len(matches)} matches)"
        )

    def manifest(self, epoch_id: str) -> EpochManifest:
        cached = self._manifest_cache.get(epoch_id)
        if cached is not None:
            return cached
        path = self._epochs_dir / epoch_id / MANIFEST_FILENAME
        if not path.exists():
            raise UnknownEpoch(f"no epoch {epoch_id!r} in {self.root}")
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable manifest for {epoch_id}: {exc}") from exc
        manifest = EpochManifest.from_document(document)
        if manifest.epoch_id != epoch_id:
            raise StoreError(
                f"manifest id mismatch under {epoch_id} "
                f"(claims {manifest.epoch_id})"
            )
        self._manifest_cache[epoch_id] = manifest
        return manifest

    def manifests(self) -> List[EpochManifest]:
        return [self.manifest(epoch_id) for epoch_id in self.epoch_ids()]

    def records(self, epoch_id: str, kind: str) -> List[Dict[str, Any]]:
        """Read and verify one segment's rows (empty if kind absent)."""
        manifest = self.manifest(self.resolve(epoch_id))
        info = manifest.segments.get(kind)
        if info is None:
            return []
        path = self._epochs_dir / manifest.epoch_id / info.file
        try:
            compressed = path.read_bytes()
        except OSError as exc:
            raise SegmentDamage(
                f"segment {kind} of {manifest.short_id} unreadable: {exc}"
            ) from exc
        try:
            raw = zlib.decompress(compressed)
        except zlib.error as exc:
            raise SegmentDamage(
                f"segment {kind} of {manifest.short_id} torn or truncated "
                f"({exc})"
            ) from exc
        if zlib.crc32(raw) != info.crc32:
            raise SegmentDamage(
                f"segment {kind} of {manifest.short_id} failed CRC32"
            )
        if hashlib.sha256(raw).hexdigest() != info.sha256:
            raise SegmentDamage(
                f"segment {kind} of {manifest.short_id} failed SHA-256"
            )
        rows = json.loads(raw.decode("utf-8"))
        if len(rows) != info.count:
            raise SegmentDamage(
                f"segment {kind} of {manifest.short_id} row count mismatch"
            )
        return rows

    def verify(self, epoch_id: str) -> List[str]:
        """Full verification of one epoch; returns problem descriptions."""
        problems: List[str] = []
        try:
            manifest = self.manifest(self.resolve(epoch_id))
        except StoreError as exc:
            return [str(exc)]
        recomputed = hashlib.sha256(
            canonical(manifest.core_document()).encode("utf-8")
        ).hexdigest()
        if recomputed != manifest.epoch_id:
            problems.append("manifest core does not hash to the epoch id")
        for kind in manifest.segments:
            try:
                self.records(manifest.epoch_id, kind)
            except SegmentDamage as exc:
                problems.append(str(exc))
        return problems

    # -------------------------------------------------------------- indexes
    def index(self, dimension: str) -> Dict[str, List[str]]:
        """key → epoch ids (commit order) for one index dimension."""
        keys = self._folded_index(dimension)
        return {key: list(ids) for key, ids in keys.items()}

    def lookup(self, dimension: str, key: str) -> List[str]:
        """Epoch ids whose records mention ``key``, commit order."""
        return list(self._folded_index(dimension).get(str(key), ()))

    def _folded_index(self, dimension: str) -> Dict[str, List[str]]:
        """One dimension of the indexes over the committed epochs.

        When the committed order extends the order the in-memory
        indexes were folded over, only the newer manifests are read and
        their keys folded in; otherwise every manifest is.
        """
        if dimension not in INDEX_DIMENSIONS:
            raise StoreError(
                f"unknown index dimension {dimension!r}; "
                f"one of {INDEX_DIMENSIONS}"
            )
        epoch_ids = self.epoch_ids()
        order, indexes = self._indexes
        if epoch_ids == order:
            return indexes[dimension]
        if epoch_ids[: len(order)] != order:
            order, indexes = [], {}
        manifests = [
            self.manifest(epoch_id) for epoch_id in epoch_ids[len(order) :]
        ]
        folded = {}
        for name in INDEX_DIMENSIONS:
            keys = indexes.get(name, {})
            grown: Dict[str, List[str]] = {}
            for manifest in manifests:
                for value in manifest.keys.get(name, ()):
                    if value not in grown:
                        grown[value] = list(keys.get(value, ()))
                    grown[value].append(manifest.epoch_id)
            folded[name] = dict(sorted({**keys, **grown}.items()))
        self._indexes = (epoch_ids, folded)
        return folded[dimension]

    # ------------------------------------------------------------- identity
    def content_state(self) -> str:
        """A digest over the committed epoch set, for serving ETags.

        Epoch ids are content hashes, so hashing the ordered id list is
        a strong digest of everything the store serves. The digest is
        reused until the commit log's stat token changes; a log whose
        order cannot be cached (damage, orphans) is hashed per call.
        """
        token = self._log_stat_token()
        cached = self._state_cache
        if cached is not None and cached[0] == token:
            return cached[1]
        digest = hashlib.sha256(
            "\n".join(self.epoch_ids()).encode("utf-8")
        ).hexdigest()
        order = self._order_cache
        if order is not None and order[0] == token:
            self._state_cache = (token, digest)
        return digest


def _logged_epoch(rec: Dict[str, Any]) -> Optional[str]:
    """The epoch id a commit-log record names (None if malformed)."""
    epoch = rec.get("epoch")
    return epoch if isinstance(epoch, str) else None
