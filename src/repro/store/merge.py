"""Shard segments: the durable files a distributed scan reconciles.

Distributed scan workers each commit a durable *shard segment* — the
rows their leased shard produced, in a CRC envelope — rather than a
full epoch. This module owns that file format and the checks that turn
a set of committed files into one verified segment per shard, in shard
order; the scan itself writes them into its epoch
(:meth:`repro.scan.stream.StreamingScan.commit`), exactly as a
single-machine run writes its batches.

The checks are all-or-nothing:

- every shard in ``range(shard_count)`` must have a source, or
  :class:`MissingShard` is raised;
- two workers committing *different* rows for the same shard is
  :class:`DuplicateShard` (the population is a pure function of
  ``(seed, index)``, so divergent duplicates mean a broken worker, not
  a race) — identical duplicates are discarded idempotently;
- a shard file that fails its CRC, digest, or identity checks is
  :class:`ShardSegmentDamage`.

The first two are found before any file is read, so nothing is written;
a damaged file is found while its segment is being written and aborts
the epoch stream. Either way nothing is published: a damaged distributed
scan degrades to a typed error, never to a committed epoch that
silently misses hosts.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exec.journal import atomic_write, canonical
from repro.store.store import StoreError

#: Version stamp for the shard-segment file format below.
SHARD_SCHEMA_VERSION = 1


class ReconciliationError(StoreError):
    """A distributed scan's shard set could not form a complete epoch."""

    def __init__(self, shard: Optional[int], message: str) -> None:
        super().__init__(message)
        self.shard = shard


class MissingShard(ReconciliationError):
    """A shard has no committed result set — the scan is incomplete."""


class DuplicateShard(ReconciliationError):
    """Two workers committed *conflicting* rows for the same shard."""


class ShardSegmentDamage(ReconciliationError):
    """A worker's shard file failed CRC/digest/identity verification."""


def rows_digest(rows: Sequence[Dict[str, Any]]) -> str:
    """Content digest of a shard's row list (canonical JSON, SHA-256).

    Workers stamp this into their commit record; reconciliation uses it
    to tell idempotent duplicates (same digest → discard) from
    conflicts (different digest → :class:`DuplicateShard`).
    """
    return hashlib.sha256(canonical(list(rows)).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ShardSource:
    """Pointer to one worker's committed shard segment file."""

    shard: int
    path: Path
    rows_sha256: str
    worker: str = ""


@dataclass(frozen=True)
class ShardSegment:
    """A verified, loaded shard segment."""

    shard: int
    worker: str
    fingerprint: str
    scanned: int
    missed: int
    decoys: int
    rows: Tuple[Dict[str, Any], ...]
    rows_sha256: str


def write_shard_segment(
    path: Path,
    *,
    shard: int,
    fingerprint: str,
    worker: str,
    rows: Sequence[Dict[str, Any]],
    scanned: int,
    missed: int,
    decoys: int,
) -> ShardSegment:
    """Durably write one worker's shard result set.

    The file is one compact canonical document ``{"crc":N,"rec":{...}}``
    with a CRC32 over the canonical body, so torn or bit-flipped files
    are detected at reconcile time. It is written with
    :func:`repro.exec.journal.atomic_write`, so a worker SIGKILLed
    mid-write leaves either nothing or a valid file.
    """
    row_list = [dict(row) for row in rows]
    digest = rows_digest(row_list)
    body = {
        "schema": SHARD_SCHEMA_VERSION,
        "shard": shard,
        "fingerprint": fingerprint,
        "worker": worker,
        "scanned": scanned,
        "missed": missed,
        "decoys": decoys,
        "rows_sha256": digest,
        "rows": row_list,
    }
    envelope = canonical(
        {"crc": zlib.crc32(canonical(body).encode("utf-8")), "rec": body}
    )
    atomic_write(path, envelope.encode("utf-8"))
    return ShardSegment(
        shard=shard,
        worker=worker,
        fingerprint=fingerprint,
        scanned=scanned,
        missed=missed,
        decoys=decoys,
        rows=tuple(row_list),
        rows_sha256=digest,
    )


def load_shard_segment(
    path: Path,
    *,
    expected_shard: Optional[int] = None,
    expected_sha256: Optional[str] = None,
    fingerprint: Optional[str] = None,
) -> ShardSegment:
    """Load and verify one shard segment file.

    Every damage mode — vanished file, malformed JSON, CRC mismatch,
    schema skew, wrong shard, wrong scan identity, row digest mismatch
    — raises :class:`ShardSegmentDamage`; a file that loads is known
    intact end to end.
    """
    shard = expected_shard
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ShardSegmentDamage(
            shard, f"shard segment {path.name} unreadable: {exc}"
        ) from exc
    try:
        envelope = json.loads(raw)
    except ValueError as exc:
        raise ShardSegmentDamage(
            shard, f"shard segment {path.name} is not valid JSON (torn write?)"
        ) from exc
    if (
        not isinstance(envelope, dict)
        or set(envelope) != {"crc", "rec"}
        or not isinstance(envelope.get("rec"), dict)
    ):
        raise ShardSegmentDamage(
            shard, f"shard segment {path.name} has a malformed envelope"
        )
    body = envelope["rec"]
    if zlib.crc32(canonical(body).encode("utf-8")) != envelope["crc"]:
        raise ShardSegmentDamage(
            shard, f"shard segment {path.name} failed its CRC check"
        )
    if body.get("schema") != SHARD_SCHEMA_VERSION:
        raise ShardSegmentDamage(
            shard,
            f"shard segment {path.name} has schema "
            f"{body.get('schema')!r}, expected {SHARD_SCHEMA_VERSION}",
        )
    if expected_shard is not None and body.get("shard") != expected_shard:
        raise ShardSegmentDamage(
            expected_shard,
            f"shard segment {path.name} claims shard {body.get('shard')!r}, "
            f"expected {expected_shard}",
        )
    if fingerprint is not None and body.get("fingerprint") != fingerprint:
        raise ShardSegmentDamage(
            body.get("shard"),
            f"shard segment {path.name} was produced under a different "
            "scan identity — refusing to merge across identities",
        )
    rows = tuple(body.get("rows") or ())
    digest = rows_digest(rows)
    if digest != body.get("rows_sha256"):
        raise ShardSegmentDamage(
            body.get("shard"),
            f"shard segment {path.name} row digest mismatch",
        )
    if expected_sha256 is not None and digest != expected_sha256:
        raise ShardSegmentDamage(
            body.get("shard"),
            f"shard segment {path.name} does not match its committed "
            "digest — file was replaced after commit",
        )
    return ShardSegment(
        shard=int(body["shard"]),
        worker=str(body.get("worker", "")),
        fingerprint=str(body.get("fingerprint", "")),
        scanned=int(body.get("scanned", 0)),
        missed=int(body.get("missed", 0)),
        decoys=int(body.get("decoys", 0)),
        rows=rows,
        rows_sha256=digest,
    )


def check_shard_set(
    shard_count: int, sources: Iterable[ShardSource]
) -> List[ShardSource]:
    """The first committed source of every shard, in shard order.

    Reads no file, so a shard outside ``range(shard_count)``, a
    conflicting duplicate (:class:`DuplicateShard`) or a shard with no
    source (:class:`MissingShard`) is refused before anything is
    written. Identical duplicates are dropped.
    """
    if shard_count < 1:
        raise ReconciliationError(None, "shard_count must be >= 1")
    chosen: Dict[int, ShardSource] = {}
    for source in sources:
        if not 0 <= source.shard < shard_count:
            raise ReconciliationError(
                source.shard,
                f"shard {source.shard} outside range(0, {shard_count})",
            )
        prior = chosen.get(source.shard)
        if prior is None:
            chosen[source.shard] = source
        elif prior.rows_sha256 != source.rows_sha256:
            raise DuplicateShard(
                source.shard,
                f"shard {source.shard} was committed twice with "
                f"conflicting contents (workers {prior.worker!r} and "
                f"{source.worker!r}) — the scan is not trustworthy",
            )
        # Otherwise speculative re-execution produced the identical
        # result; first valid commit wins, the copy is discarded.
    missing = [k for k in range(shard_count) if k not in chosen]
    if missing:
        preview = ", ".join(str(k) for k in missing[:8])
        raise MissingShard(
            missing[0],
            f"{len(missing)} shard(s) have no committed result set "
            f"(first few: {preview}) — refusing to publish an "
            "incomplete epoch",
        )
    return [chosen[k] for k in range(shard_count)]


def load_segments(
    sources: Iterable[ShardSource], fingerprint: str
) -> Iterator[ShardSegment]:
    """Load and verify each source's segment file, one at a time.

    A damaged file raises :class:`ShardSegmentDamage` when it is
    reached, so a consumer writing the segments into an epoch stream
    aborts it.
    """
    for source in sources:
        yield load_shard_segment(
            source.path,
            expected_shard=source.shard,
            expected_sha256=source.rows_sha256,
            fingerprint=fingerprint,
        )
