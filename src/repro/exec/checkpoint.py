"""Atomic study snapshots: durable checkpoints between journal records.

A snapshot is the *state* half of the durability story (the journal in
:mod:`repro.exec.journal` is the *intent* half): a single file holding
everything a resumed process needs to continue the campaign from a unit
boundary and still produce byte-identical output — completed unit
results, the sim-clock position, every vendor's RNG/portal/database
delta, middlebox counters, the world's campaign-domain delta and
address-pool cursors, lookup-cache contents, and the resilience layer's
breaker/quarantine/coverage state.

Snapshots are written with :func:`repro.exec.journal.atomic_write`, so
a reader never observes a half-written snapshot: either the old file,
the new file, or a ``.tmp`` it ignores. Each snapshot embeds a schema
version, a fingerprint of the study's identity (seed, products,
scenario knobs, fault plan), and a SHA-256 over the state blob;
:func:`load_latest_snapshot` walks candidates newest-first and degrades
to the next older one — with an explicit note in the
:class:`~repro.exec.journal.RecoveryReport` — when any check fails.

The state blob itself is a pickled plain-data tree (no world object —
service closures make the live world unpicklable by design; see
docs/methodology.md, "Durability & resume"). :func:`encode_state` /
:func:`decode_state` are the shared codec, also used by the
``PartialStudyResult`` round-trip tests.

A list that only grows between snapshots can go through
:class:`ListFrames`, which pickles each item once: a snapshot embeds
the frames earlier snapshots already pickled plus one frame for the
items added since, and decodes to the plain list again.

:func:`open_journal` is the one resume protocol: the study and the
monitor both open their journal and find their snapshot through it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exec.journal import (
    JOURNAL_FILENAME,
    JournalRecord,
    JournalWriter,
    RecoveryReport,
    atomic_write,
    canonical,
)

#: Bump on any incompatible change to the snapshot layout.
SNAPSHOT_SCHEMA_VERSION = 1

_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".ckpt"


class CheckpointError(Exception):
    """A snapshot could not be written, or a resume was refused because
    the journal was begun under another identity (never raised for read
    damage).

    ``report`` is the refused resume's :class:`RecoveryReport`; None
    when a write failed.
    """

    def __init__(
        self, message: str, report: Optional[RecoveryReport] = None
    ) -> None:
        super().__init__(message)
        self.report = report


def fingerprint(identity: Dict[str, Any]) -> str:
    """Stable digest of a study's identity (seed, products, knobs, plan).

    Resume refuses to mix state across identities: a snapshot written
    by a different seed, product selection, scenario configuration, or
    fault plan fingerprints differently and is rejected with a note.
    """
    return hashlib.sha256(canonical(identity).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- codec
def encode_state(state: Any) -> Dict[str, str]:
    """Pickle + compress + base64 a plain-data state tree.

    Compression level 1: snapshots are written once per study unit on
    the campaign's critical path, so encode speed matters more than the
    last few percent of ratio (the blobs are small either way).
    """
    blob = zlib.compress(
        pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL), 1
    )
    return {
        "blob": base64.b64encode(blob).decode("ascii"),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def decode_state(encoded: Dict[str, str]) -> Any:
    """Inverse of :func:`encode_state`; raises ``ValueError`` on damage."""
    try:
        blob = base64.b64decode(encoded["blob"].encode("ascii"), validate=True)
    except Exception as exc:
        raise ValueError(f"undecodable state blob: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()
    if digest != encoded.get("sha256"):
        raise ValueError("state blob SHA-256 mismatch")
    try:
        return pickle.loads(zlib.decompress(blob))
    except Exception as exc:
        raise ValueError(f"unloadable state blob: {exc}") from exc


def join_frames(frames: Sequence[bytes]) -> List[Any]:
    """Unpickle each frame (a pickled list) and concatenate them.

    Part of the snapshot format: a state holding :class:`ListFrames`
    output pickles as a call to this function, by its import path.
    """
    joined: List[Any] = []
    for frame in frames:
        joined.extend(pickle.loads(frame))
    return joined


class _Joined:
    """Pickles as the list its frames join to."""

    __slots__ = ("frames",)

    def __init__(self, frames: Tuple[bytes, ...]) -> None:
        self.frames = frames

    def __reduce__(self) -> Tuple[Any, ...]:
        return join_frames, (self.frames,)


class ListFrames:
    """Pickles an append-only list one frame of new items at a time.

    :meth:`encode` takes the list's current items and returns a
    stand-in to put in the state instead; it pickles only the items
    added since the last call and unpickles as the whole list. The
    frames are reused while the items framed so far are the same
    objects, in the same order, at the head of the list; otherwise
    everything is pickled again. Changing an item in place once it is
    framed is not detected, so the caller must treat framed items as
    final.
    """

    def __init__(self) -> None:
        self._items: List[Any] = []
        self._frames: List[bytes] = []

    @property
    def frame_count(self) -> int:
        return len(self._frames)

    def clear(self) -> None:
        self._items, self._frames = [], []

    def encode(self, items: List[Any]) -> _Joined:
        framed = len(self._items)
        if len(items) < framed or any(
            item is not old for item, old in zip(items, self._items)
        ):
            self.clear()
            framed = 0
        if len(items) > framed:
            self._frames.append(
                pickle.dumps(items[framed:], protocol=pickle.HIGHEST_PROTOCOL)
            )
            self._items = list(items)
        return _Joined(tuple(self._frames))


# ------------------------------------------------------------------ snapshots
@dataclass(frozen=True)
class Snapshot:
    """A loaded-and-verified snapshot."""

    path: Path
    seq: int
    state: Any


def snapshot_path(directory: Path, seq: int) -> Path:
    return Path(directory) / f"{_SNAPSHOT_PREFIX}{seq:08d}{_SNAPSHOT_SUFFIX}"


def write_snapshot(
    directory: Path, *, seq: int, identity_fingerprint: str, state: Any
) -> Path:
    """Atomically persist ``state`` as snapshot ``seq``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = snapshot_path(directory, seq)
    document = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "seq": seq,
        "fingerprint": identity_fingerprint,
    }
    document.update(encode_state(state))
    data = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
    try:
        atomic_write(final, data)
    except OSError as exc:
        raise CheckpointError(f"cannot write snapshot {final}: {exc}") from exc
    return final


def list_snapshots(directory: Path) -> List[Path]:
    """Snapshot files in the directory, oldest first; ignores temp files."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        path
        for path in directory.iterdir()
        if path.name.startswith(_SNAPSHOT_PREFIX)
        and path.name.endswith(_SNAPSHOT_SUFFIX)
    )


def load_latest_snapshot(
    directory: Path,
    *,
    identity_fingerprint: str,
    report: Optional[RecoveryReport] = None,
) -> Optional[Snapshot]:
    """The newest snapshot that verifies, or None.

    Walks candidates newest-first; anything unreadable, checksum-bad,
    schema-skewed, or written under a different study identity is
    skipped with an explicit note, and the next older candidate is
    tried — damaged durability state degrades, it never crashes.
    """
    report = report if report is not None else RecoveryReport()
    for path in reversed(list_snapshots(directory)):
        loaded = _load_snapshot(path, identity_fingerprint)
        if isinstance(loaded, Snapshot):
            report.snapshot_used = path.name
            return loaded
        report.snapshots_rejected.append(f"{path.name}: {loaded}")
    return None


def _load_snapshot(
    path: Path, identity_fingerprint: str
) -> Union[Snapshot, str]:
    """The verified snapshot at ``path``, or why it was rejected."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"unreadable ({exc})"
    if not isinstance(document, dict):
        return f"malformed envelope (a JSON {type(document).__name__})"
    if document.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        return (
            f"schema version skew (snapshot v{document.get('schema')}, "
            f"reader v{SNAPSHOT_SCHEMA_VERSION})"
        )
    if document.get("fingerprint") != identity_fingerprint:
        return "study identity mismatch (seed/products/plan differ)"
    seq = document.get("seq")
    if type(seq) is not int:
        return f"malformed envelope (seq {seq!r})"
    try:
        state = decode_state(document)
    except ValueError as exc:
        return str(exc)
    return Snapshot(path=path, seq=seq, state=state)


# -------------------------------------------------------------------- resume
def open_journal(
    directory: Path,
    *,
    identity_fingerprint: str,
    resume: bool,
    after_write: Optional[Callable[[JournalRecord], None]] = None,
) -> Tuple[JournalWriter, Optional[Snapshot], RecoveryReport]:
    """Open the journal in ``directory`` for a run of this identity.

    A fresh run creates the journal, which :meth:`JournalWriter.create`
    refuses when one exists. A resume cuts the journal back to its
    valid prefix, refuses a ``begin`` record written under another
    identity with a :class:`CheckpointError` that carries the report,
    and loads the newest snapshot that verifies. Returns the writer,
    that snapshot (None on a fresh run or when none verifies) and the
    recovery report. ``after_write`` goes to the writer (the
    crash-matrix test seam).
    """
    path = Path(directory) / JOURNAL_FILENAME
    if not resume:
        writer = JournalWriter.create(path, after_write=after_write)
        return writer, None, RecoveryReport()
    writer, records, report = JournalWriter.resume(
        path, after_write=after_write
    )
    begin = next((r for r in records if r.kind == "begin"), None)
    if (
        begin is not None
        and begin.payload.get("fingerprint") != identity_fingerprint
    ):
        writer.close()
        raise CheckpointError(
            f"journal {path} was written by a different run (seed, "
            "products, targets, scenario, schedule or fault plan differ); "
            "refusing to resume across identities",
            report,
        )
    snapshot = load_latest_snapshot(
        directory, identity_fingerprint=identity_fingerprint, report=report
    )
    return writer, snapshot, report
