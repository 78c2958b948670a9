"""Epoch construction: segments written row-by-row, published once.

Every epoch the store holds is built here, whether its rows stream in
from a million-host scan that must never hold them all in memory or
come from a fully materialized :class:`~repro.store.records.EpochData`
(:meth:`repro.store.store.ResultsStore.commit` loops over the same
writers). An :class:`EpochStream` opens a staging directory,
:class:`SegmentWriter` feeds each row's canonical JSON straight through
an incremental ``zlib`` compressor to disk (tracking CRC32, SHA-256,
counts and index keys as it goes), and ``finalize()`` seals the
manifest and publishes the directory with
:func:`repro.exec.journal.publish_directory`. Raw segment bytes are
``"[" + ",".join(canonical(row)) + "]"``, precisely ``canonical(rows)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.exec.journal import canonical, publish_directory
from repro.store.records import INDEX_DIMENSIONS, RECORD_KINDS
from repro.store.store import (
    CommitResult,
    MANIFEST_FILENAME,
    SEGMENT_SUFFIX,
    SegmentInfo,
    StoreError,
)

if TYPE_CHECKING:
    from repro.store.store import ResultsStore

#: Part of the on-disk format: a segment's stored size is hashed into
#: the epoch id, so another level would change every epoch id.
COMPRESSION_LEVEL = 6


class SegmentWriter:
    """Incrementally writes one record segment to a staging file.

    Rows are appended with :meth:`write`; digests, byte counts and the
    index keys the manifest needs are accumulated on the fly, so
    closing the writer yields a :class:`SegmentInfo` without ever
    holding more than one row in memory.
    """

    def __init__(self, path: Path, kind: str) -> None:
        self.kind = kind
        self.path = path
        self.count = 0
        self.raw_bytes = 0
        self.stored_bytes = 0
        self.keys: Dict[str, Set[str]] = {
            dim: set() for dim in INDEX_DIMENSIONS
        }
        self._crc = 0
        self._sha = hashlib.sha256()
        self._compressor = zlib.compressobj(COMPRESSION_LEVEL)
        self._handle = open(path, "wb")
        self._closed = False
        self._feed(b"[")

    def _feed(self, data: bytes) -> None:
        self._crc = zlib.crc32(data, self._crc)
        self._sha.update(data)
        self.raw_bytes += len(data)
        out = self._compressor.compress(data)
        if out:
            self._handle.write(out)
            self.stored_bytes += len(out)

    def write(self, row: Dict[str, Any]) -> None:
        """Append one row (canonical JSON, comma-separated)."""
        if self._closed:
            raise StoreError(f"segment {self.kind} already sealed")
        chunk = canonical(row).encode("utf-8")
        self._feed(b"," + chunk if self.count else chunk)
        self.count += 1
        for dim in INDEX_DIMENSIONS:
            value = row.get(dim)
            if value is not None:
                self.keys[dim].add(str(value))

    def close(self) -> SegmentInfo:
        """Seal the segment: flush compression, return digests.

        The file is made durable when its directory is published.
        """
        if self._closed:
            raise StoreError(f"segment {self.kind} already sealed")
        self._closed = True
        self._feed(b"]")
        tail = self._compressor.flush()
        if tail:
            self._handle.write(tail)
            self.stored_bytes += len(tail)
        self._handle.close()
        return SegmentInfo(
            file=self.path.name,
            count=self.count,
            crc32=self._crc,
            sha256=self._sha.hexdigest(),
            raw_bytes=self.raw_bytes,
            stored_bytes=self.stored_bytes,
        )

    def discard(self) -> None:
        if not self._closed:
            self._closed = True
            self._handle.close()


class EpochStream:
    """A streaming, durably-staged epoch under construction.

    Obtain one from :meth:`ResultsStore.begin_stream`, write rows with
    :meth:`write`, then :meth:`finalize` — which computes the
    content-addressed epoch id from the accumulated digests and
    publishes atomically (staging rename + commit log), or
    :meth:`abort` to drop the staging directory without a trace.
    """

    def __init__(
        self,
        store: "ResultsStore",
        *,
        identity: Dict[str, Any],
        fingerprint: str,
        seed: int,
        window_start: int,
    ) -> None:
        self._store = store
        self._identity = dict(identity)
        self._fingerprint = fingerprint
        self._seed = seed
        self._window_start = int(window_start)
        self._writers: Dict[str, SegmentWriter] = {}
        self._done = False
        # Staging name only needs to be unique among live writers on
        # this store; the content-addressed name arrives at finalize.
        nonce = f"{os.getpid()}-{id(self):x}"
        self._staging = store._epochs_dir / f".stream-{nonce}"
        if self._staging.exists():
            shutil.rmtree(self._staging)
        self._staging.mkdir(parents=True)

    # ------------------------------------------------------------- writing
    def writer(self, kind: str) -> SegmentWriter:
        """The (lazily created) writer for one record kind."""
        if self._done:
            raise StoreError("epoch stream already finalized or aborted")
        if kind not in RECORD_KINDS:
            raise StoreError(
                f"unknown record kind {kind!r}; one of {RECORD_KINDS}"
            )
        existing = self._writers.get(kind)
        if existing is not None:
            return existing
        writer = SegmentWriter(
            self._staging / f"{kind}{SEGMENT_SUFFIX}", kind
        )
        self._writers[kind] = writer
        return writer

    def write(self, kind: str, row: Dict[str, Any]) -> None:
        self.writer(kind).write(row)

    # ----------------------------------------------------------- lifecycle
    def finalize(
        self,
        *,
        window_end: int,
        partial: Tuple[str, ...] = (),
    ) -> CommitResult:
        """Seal all segments, hash the manifest, publish the epoch."""
        if self._done:
            raise StoreError("epoch stream already finalized or aborted")
        self._done = True
        if int(window_end) < self._window_start:
            self.abort(_force=True)
            raise StoreError("epoch window ends before it starts")
        segments: Dict[str, SegmentInfo] = {}
        keys: Dict[str, Set[str]] = {dim: set() for dim in INDEX_DIMENSIONS}
        try:
            for kind, writer in sorted(self._writers.items()):
                segments[kind] = writer.close()
                for dim, values in writer.keys.items():
                    keys[dim].update(values)
            manifest = self._store._seal_manifest(
                fingerprint=self._fingerprint,
                seed=self._seed,
                identity=self._identity,
                window_start=self._window_start,
                window_end=int(window_end),
                partial=tuple(partial),
                segments=segments,
                keys={dim: tuple(sorted(vals)) for dim, vals in keys.items()},
            )
            final = self._store._epochs_dir / manifest.epoch_id
            created = not final.is_dir()
            if created:
                document = manifest.to_document()
                (self._staging / MANIFEST_FILENAME).write_bytes(
                    (json.dumps(document, indent=2, sort_keys=True) + "\n")
                    .encode("utf-8")
                )
                publish_directory(self._staging, final)
            else:
                # Content addressing: the identical epoch is already in
                # place, so the staged copy is redundant.
                shutil.rmtree(self._staging)
        except OSError as exc:
            shutil.rmtree(self._staging, ignore_errors=True)
            raise StoreError(f"cannot commit epoch: {exc}") from exc
        self._store._register_commit(manifest, created=created)
        return CommitResult(
            epoch_id=manifest.epoch_id, created=created, path=final
        )

    def abort(self, _force: bool = False) -> None:
        """Drop the staging directory; nothing is published."""
        if self._done and not _force:
            return
        self._done = True
        for writer in self._writers.values():
            writer.discard()
        if self._staging.exists():
            shutil.rmtree(self._staging)

    def __enter__(self) -> "EpochStream":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> Optional[bool]:
        if exc_type is not None:
            self.abort()
        return None
