"""Crash-safe persistence: the one module that makes bytes durable.

The confirmation methodology is inherently long-running — submitted
sites are only re-tested after a 3-5 day categorization window (§4.2) —
so a production-scale reproduction must survive process death
mid-campaign. Everything this repository keeps across a crash is
written by one of three operations here:

- :func:`atomic_write` replaces a whole file (snapshots, the
  coordinator document, shard segments): a reader sees the old file or
  the new one, never a mix.
- :func:`publish_directory` moves a fully written staging directory
  into place (store epochs): a reader sees all of it or none of it.
- The **framed log** appends CRC-protected lines: the study and monitor
  journals and the alert ledger (:class:`JournalWriter`), the
  coordinator's queue journal, and the store's commit log
  (:func:`append_frames`). :func:`read_frames` reads any of them back
  and :func:`truncate_damaged_suffix` cuts off what it could not read.

A framed line is ``{"crc": N, "rec": BODY}`` plus a newline, where BODY
is the :func:`canonical` encoding of the record and N its CRC32. Each
record carries a schema version ``v`` and a sequence number ``seq``
counting from 0 without gaps. Recovery semantics:

- **Torn tail** — a partially written last line (the classic
  power-loss artifact of an append-only log) is dropped and reported;
  every complete record before it is kept.
- **Corrupt record** — a CRC or JSON failure mid-file invalidates that
  record *and everything after it* (a WAL's suffix is meaningless once
  its prefix is broken); the valid prefix is kept and the damage is
  reported. A line must be byte-identical to the framing of its record,
  so the CRC covers every byte and any single flipped bit is caught.
- **Version skew** — a record written by a different schema version is
  treated the same way as corruption: the reader keeps the valid
  prefix and reports the skew rather than guessing at field meanings.

None of these degrade to a crash or to silent recomputation: the
reader always returns the longest valid prefix plus a
:class:`RecoveryReport` that says exactly what was discarded and why.
Resume then replays deterministic work from the newest valid snapshot
(see :mod:`repro.exec.checkpoint`).
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

#: Bump on any incompatible change to the record encoding.
JOURNAL_SCHEMA_VERSION = 1

#: The journal file name inside a ``--journal`` directory.
JOURNAL_FILENAME = "journal.jsonl"

T = TypeVar("T")


class JournalError(Exception):
    """A journal could not be written (never raised for read damage)."""


def canonical(value: Any) -> str:
    """The canonical JSON encoding: sorted keys, no whitespace.

    Every CRC, digest, fingerprint and epoch id in the repository is
    computed over this encoding, so changing it changes all of them.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------ whole files
def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` so that a crash leaves either file.

    Writes a temp file ending in ``.tmp`` beside it, one per call,
    fsyncs it, renames it over ``path`` (atomic on POSIX) and fsyncs
    the directory so the rename itself is durable. A leftover ``.tmp``
    is only ever a write that never happened; on any failure here it is
    removed before the error propagates.
    """
    path = Path(path)
    # A temp file of its own per call, so concurrent writers of one
    # path never truncate or rename each other's; O_EXCL refuses a name
    # already taken, and 0o666 less the umask is what open() would give.
    temp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    _fsync_path(path.parent)


def publish_directory(staging: Path, final: Path) -> None:
    """Move a fully written staging directory to ``final``, durably.

    Fsyncs every file in ``staging``, renames the directory into place
    (atomic, so readers see the whole directory or nothing) and fsyncs
    the parent so the rename survives a crash. On failure the staging
    directory is removed before the error propagates.
    """
    try:
        for child in sorted(staging.iterdir()):
            _fsync_path(child)
        os.replace(staging, final)
        _fsync_path(final.parent)
    except OSError:
        shutil.rmtree(staging, ignore_errors=True)
        raise


# -------------------------------------------------------------- framed log
@dataclass
class RecoveryReport:
    """An explicit account of what recovery kept, dropped, and chose.

    Populated by the framed-log reader (records and bytes kept,
    records discarded, damage notes) and extended by the snapshot
    loader (snapshots considered, rejected, and the one actually used).
    A degraded log never surfaces as an exception — it surfaces here.
    """

    journal_path: Optional[str] = None
    records_kept: int = 0
    records_discarded: int = 0
    bytes_kept: int = 0
    notes: List[str] = field(default_factory=list)
    snapshots_rejected: List[str] = field(default_factory=list)
    snapshot_used: Optional[str] = None
    units_replayed: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.notes and not self.snapshots_rejected

    def note(self, message: str) -> None:
        self.notes.append(message)

    def describe_journal(self) -> List[str]:
        """What the journal reader kept and dropped: all a refused
        resume has to report, since it never looks at a snapshot."""
        lines = [
            f"journal: {self.journal_path or '(none)'} — "
            f"{self.records_kept} record(s) kept, "
            f"{self.records_discarded} discarded"
        ]
        for note in self.notes:
            lines.append(f"  damage: {note}")
        return lines

    def describe(self) -> List[str]:
        """The journal account, then where the resumed run starts."""
        lines = self.describe_journal()
        for rejected in self.snapshots_rejected:
            lines.append(f"  snapshot rejected: {rejected}")
        lines.append(
            f"resume point: {self.snapshot_used or 'scratch (no valid snapshot)'}"
        )
        if self.units_replayed:
            lines.append(
                f"replaying {len(self.units_replayed)} unit(s): "
                + ", ".join(self.units_replayed)
            )
        return lines


def encode_frame(rec: Dict[str, Any]) -> bytes:
    """One framed line, CRC last so it covers the canonical body."""
    body = canonical(rec).encode("utf-8")
    return b'{"crc": %d, "rec": %s}\n' % (zlib.crc32(body), body)


def append_frames(path: Path, recs: Iterable[Dict[str, Any]]) -> int:
    """Append framed records in one write made durable by one fsync.

    Returns the number of bytes appended.
    """
    data = b"".join(encode_frame(rec) for rec in recs)
    with open(path, "ab") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    return len(data)


def read_frames(
    path: Path,
    *,
    version: int,
    decode: Callable[[Dict[str, Any]], Optional[T]],
) -> Tuple[List[T], RecoveryReport]:
    """Read the longest valid prefix of a framed log.

    ``decode`` turns one record body (already checked for CRC, framing,
    ``version`` and ``seq``) into the caller's record, or returns None
    when the body lacks the caller's fields. Never raises for damage:
    torn tails, CRC failures, version skew, sequence breaks and
    malformed bodies all end the prefix and leave a note in the
    returned :class:`RecoveryReport`, whose ``bytes_kept`` is the
    prefix's length in the file.
    """
    report = RecoveryReport(journal_path=str(path))
    items: List[T] = []
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return items, report
    lines = raw.split(b"\n")
    torn = lines.pop()  # empty unless the final write was interrupted
    for index, line in enumerate(lines):
        rec = _parse_frame(line, version, len(items))
        item = decode(rec) if isinstance(rec, dict) else None
        if item is None:
            damage = rec if isinstance(rec, str) else "malformed record body"
            report.note(f"record {index}: {damage}; discarding it and "
                        f"{len(lines) - index - 1} subsequent record(s)")
            report.records_discarded += len(lines) - index
            break
        items.append(item)
        report.bytes_kept += len(line) + 1
    if torn:
        report.records_discarded += 1
        report.note("torn tail: final record is incomplete (no newline); dropped")
    report.records_kept = len(items)
    return items, report


def _parse_frame(
    line: bytes, version: int, expected_seq: int
) -> Union[Dict[str, Any], str]:
    """The record body of one line, or a description of its damage."""
    try:
        outer = json.loads(line.decode("utf-8"))
    except ValueError:
        return "unparseable line"
    if (
        not isinstance(outer, dict)
        or "crc" not in outer
        or not isinstance(outer.get("rec"), dict)
    ):
        return "malformed envelope"
    rec = outer["rec"]
    body = canonical(rec).encode("utf-8")
    crc = zlib.crc32(body)
    if outer["crc"] != crc:
        return "CRC mismatch"
    if line != b'{"crc": %d, "rec": %s}' % (crc, body):
        return "line differs from its canonical framing"
    if rec.get("v") != version:
        return (
            f"schema version skew (journal v{rec.get('v')}, "
            f"reader v{version})"
        )
    seq = rec.get("seq")
    if not isinstance(seq, int) or seq != expected_seq:
        return f"sequence break (saw {seq!r}, expected {expected_seq})"
    return rec


def truncate_damaged_suffix(path: Path, report: RecoveryReport) -> None:
    """Cut a framed log back to the valid prefix ``report`` describes.

    ``report`` must come from :func:`read_frames` on the same file.
    Appends then continue the prefix instead of following garbage, so
    the sequence stays contiguous.
    """
    if report.records_discarded:
        with open(path, "r+b") as handle:
            handle.truncate(report.bytes_kept)
            handle.flush()
            os.fsync(handle.fileno())


# ----------------------------------------------------------------- journal
@dataclass(frozen=True)
class JournalRecord:
    """One validated journal entry."""

    seq: int
    kind: str
    payload: Dict[str, Any]

    def encode(self) -> bytes:
        return encode_frame(
            {
                "seq": self.seq,
                "v": JOURNAL_SCHEMA_VERSION,
                "kind": self.kind,
                "payload": self.payload,
            }
        )

    @classmethod
    def decode(cls, rec: Dict[str, Any]) -> Optional["JournalRecord"]:
        kind = rec.get("kind")
        payload = rec.get("payload")
        if not isinstance(kind, str) or not isinstance(payload, dict):
            return None
        return cls(seq=rec["seq"], kind=kind, payload=payload)


def read_journal(path: Path) -> Tuple[List[JournalRecord], RecoveryReport]:
    """Read the longest valid prefix of a journal file."""
    return read_frames(
        path, version=JOURNAL_SCHEMA_VERSION, decode=JournalRecord.decode
    )


class JournalWriter:
    """Appends journal records, fsyncing each durable one.

    A journal is the durable record of *what a run was doing*: one
    record per event (study begin, unit start, unit commit, snapshot
    written, round start, round commit, final).

    ``after_write`` is a test seam: the crash-matrix harness installs a
    hook that raises after the Nth durable record, simulating a SIGKILL
    at every possible journal position. Because the simulated world
    lives entirely in memory, "the hook raised and the process
    abandoned its objects" is exactly as destructive as a real kill.
    """

    def __init__(
        self,
        path: Path,
        *,
        after_write: Optional[Callable[[JournalRecord], None]] = None,
    ) -> None:
        self.path = Path(path)
        self.after_write = after_write
        self._next_seq = 0
        self._handle = None

    @classmethod
    def create(cls, path: Path, **kwargs: Any) -> "JournalWriter":
        """Start a fresh journal (refuses to clobber an existing one)."""
        path = Path(path)
        if path.exists():
            raise JournalError(
                f"journal already exists: {path}; "
                "pass resume=True (--resume) to continue it"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        return cls(path, **kwargs)

    @classmethod
    def resume(
        cls, path: Path, **kwargs: Any
    ) -> Tuple["JournalWriter", List[JournalRecord], RecoveryReport]:
        """Reopen a journal, truncating any damaged suffix first.

        Returns the writer positioned after the valid prefix, plus the
        prefix itself and the recovery report describing any damage.
        """
        path = Path(path)
        records, report = read_journal(path)
        truncate_damaged_suffix(path, report)
        writer = cls(path, **kwargs)
        writer._next_seq = len(records)
        return writer, records, report

    # --------------------------------------------------------------- write
    def append(
        self, kind: str, payload: Dict[str, Any], *, durable: bool = True
    ) -> JournalRecord:
        """Append one record; ``durable=False`` skips the per-record
        fsync (group commit: the next durable append persists it too,
        since fsync flushes all buffered data for the file). Only safe
        for records whose loss a resume tolerates — e.g. an in-flight
        round marker that recovery would simply re-run."""
        record = JournalRecord(self._next_seq, kind, dict(payload))
        encoded = record.encode()
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
        self._handle.write(encoded)
        self._handle.flush()
        if durable:
            os.fsync(self._handle.fileno())
        self._next_seq += 1
        if self.after_write is not None:
            self.after_write(record)
        return record

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
