"""Property tests for the shared framed-log reader.

One reader, :func:`repro.exec.journal.read_frames`, serves every
framed log: journal records (the study and monitor journals, the alert
ledger, the coordinator queue) and the store's commit-log records.
Whatever a crash or a bad disk does to such a file — truncation at any
byte, any flipped bit, dropped, duplicated or swapped lines, appended
garbage — the reader must never raise and must return a prefix of what
was written. Resume then cuts the file back to that prefix, and the
next append continues ``seq`` without a gap.

Exercised via Hypothesis when it is installed, and over a fixed seeded
sample otherwise, so tier-1 checks the same properties either way.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro.exec.journal import (
    JournalWriter,
    append_frames,
    read_frames,
    read_journal,
    truncate_damaged_suffix,
)
from repro.store.store import STORE_SCHEMA_VERSION, _logged_epoch

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without the dep
    HAVE_HYPOTHESIS = False

OPS = ("none", "truncate", "flip", "drop", "duplicate", "swap", "garbage")


class JournalShape:
    """``(kind, payload)`` records written by :class:`JournalWriter`."""

    extra = ("appended", {"after": "resume"})

    @staticmethod
    def write(path, items):
        with JournalWriter.create(path) as writer:
            for kind, payload in items:
                writer.append(kind, payload, durable=False)

    @staticmethod
    def read(path):
        records, report = read_journal(path)
        return [(record.kind, record.payload) for record in records], report

    @staticmethod
    def resume_and_append(path, item):
        writer, _records, _report = JournalWriter.resume(path)
        with writer:
            writer.append(*item)


def _log_rec(seq, epoch_id):
    return {"seq": seq, "v": STORE_SCHEMA_VERSION, "epoch": epoch_id}


class CommitLogShape:
    """Epoch-id records, as the store appends to ``epochs.jsonl``."""

    extra = "f" * 64

    @staticmethod
    def write(path, items):
        append_frames(path, [_log_rec(seq, e) for seq, e in enumerate(items)])

    @classmethod
    def read(cls, path):
        return read_frames(
            path, version=STORE_SCHEMA_VERSION, decode=_logged_epoch
        )

    @classmethod
    def resume_and_append(cls, path, item):
        items, report = cls.read(path)
        truncate_damaged_suffix(path, report)
        append_frames(path, [_log_rec(len(items), item)])


def _damage(raw, op, position, bit, garbage):
    """``raw`` after one damage operation, and how many records survive."""
    lines = raw.splitlines(keepends=True)
    if op == "truncate":
        cut = position % (len(raw) + 1)
        return raw[:cut], raw[:cut].count(b"\n")
    if op == "flip" and raw:
        index = position % len(raw)
        flipped = raw[:index] + bytes([raw[index] ^ (1 << bit)])
        return flipped + raw[index + 1:], raw[:index].count(b"\n")
    if op == "drop" and lines:
        index = position % len(lines)
        return b"".join(lines[:index] + lines[index + 1:]), index
    if op == "duplicate" and lines:
        index = position % len(lines)
        return b"".join(lines[: index + 1] + lines[index:]), index + 1
    if op == "swap" and len(lines) >= 2:
        index = position % (len(lines) - 1)
        lines[index], lines[index + 1] = lines[index + 1], lines[index]
        return b"".join(lines), index
    if op == "garbage":
        return raw + garbage, len(lines)
    return raw, len(lines)


def _check(shape, items, op, position, bit, garbage):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "log.jsonl"
        shape.write(path, items)
        raw = path.read_bytes() if path.exists() else b""
        damaged, survivors = _damage(raw, op, position, bit, garbage)
        path.write_bytes(damaged)

        read, report = shape.read(path)
        assert read == items[:survivors]
        assert report.records_kept == survivors
        assert damaged[: report.bytes_kept] == raw[: report.bytes_kept]
        assert raw[: report.bytes_kept].count(b"\n") == survivors
        if damaged == raw:
            assert report.clean and report.records_discarded == 0
        if op in ("flip", "garbage") and damaged != raw:
            # CRC32 catches every single-bit error.
            assert not report.clean and report.records_discarded

        shape.resume_and_append(path, shape.extra)
        assert path.read_bytes().startswith(raw[: report.bytes_kept])
        resumed, resumed_report = shape.read(path)
        assert resumed == items[:survivors] + [shape.extra]
        assert resumed_report.clean


def _random_json(rng, depth=0):
    roll = rng.randrange(7 if depth < 2 else 5)
    if roll == 0:
        return None
    if roll == 1:
        return rng.random() < 0.5
    if roll == 2:
        return rng.randrange(-(2**40), 2**40)
    if roll == 3:
        return rng.uniform(-1e6, 1e6)
    if roll == 4:
        return _random_text(rng)
    if roll == 5:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(3))]
    return {
        _random_text(rng): _random_json(rng, depth + 1)
        for _ in range(rng.randrange(3))
    }


def _random_text(rng):
    alphabet = "ab \"\\\né \U0001f600{}"
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))


def _random_damage(rng):
    return (
        rng.choice(OPS),
        rng.randrange(10**6),
        rng.randrange(8),
        bytes(rng.randrange(256) for _ in range(rng.randrange(1, 30))),
    )


if HAVE_HYPOTHESIS:
    json_values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=10),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=5), children, max_size=3),
        max_leaves=8,
    )
    damage = dict(
        op=st.sampled_from(OPS),
        position=st.integers(min_value=0, max_value=10**6),
        bit=st.integers(min_value=0, max_value=7),
        garbage=st.binary(min_size=1, max_size=40),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        items=st.lists(
            st.tuples(
                st.text(max_size=8),
                st.dictionaries(st.text(max_size=6), json_values, max_size=4),
            ),
            max_size=6,
        ),
        **damage,
    )
    def test_journal_records_survive_any_damage(
        items, op, position, bit, garbage
    ):
        _check(JournalShape, items, op, position, bit, garbage)

    @settings(max_examples=150, deadline=None)
    @given(items=st.lists(st.text(max_size=70), max_size=6), **damage)
    def test_commit_log_records_survive_any_damage(
        items, op, position, bit, garbage
    ):
        _check(CommitLogShape, items, op, position, bit, garbage)

else:  # pragma: no cover - fallback for environments without hypothesis

    def test_journal_records_survive_any_damage():
        rng = random.Random(0xF4A3E)
        for _ in range(150):
            items = [
                (
                    _random_text(rng),
                    {
                        _random_text(rng): _random_json(rng, depth=1)
                        for _ in range(rng.randrange(4))
                    },
                )
                for _ in range(rng.randrange(7))
            ]
            _check(JournalShape, items, *_random_damage(rng))

    def test_commit_log_records_survive_any_damage():
        rng = random.Random(0xC0DE)
        for _ in range(150):
            items = [_random_text(rng) for _ in range(rng.randrange(7))]
            _check(CommitLogShape, items, *_random_damage(rng))

