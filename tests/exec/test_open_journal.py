"""Property test of the one resume protocol, :func:`open_journal`.

The study and the monitor both open their journal through it, so its
damage matrix is fuzzed here once: a journal whose ``begin`` record
names fingerprint F or G, random records after it, snapshots written
under F or G, then random damage — truncation at any byte, one flipped
byte, garbled snapshot files. Every open is made as identity F.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.checkpoint import (
    CheckpointError,
    fingerprint,
    open_journal,
    snapshot_path,
    write_snapshot,
)
from repro.exec.journal import JOURNAL_FILENAME, JournalError, JournalRecord

F = fingerprint({"run": "F"})
G = fingerprint({"run": "G"})

_records = st.lists(
    st.tuples(
        st.sampled_from(
            ["unit-start", "unit-commit", "snapshot", "round-commit", "final"]
        ),
        st.dictionaries(st.text(max_size=4), st.integers(-9, 9), max_size=2),
    ),
    max_size=6,
)


def _line_of(lines, offset):
    """Index of the line holding byte ``offset`` (its newline included),
    which is also how many lines end before that byte."""
    end = 0
    for index, line in enumerate(lines):
        end += len(line)
        if offset < end:
            return index
    return len(lines)


@settings(max_examples=150, deadline=None)
@given(
    journal=st.none() | st.tuples(st.sampled_from([F, G]), _records),
    snapshots=st.dictionaries(
        st.integers(0, 30),
        st.tuples(st.sampled_from([F, G]), st.booleans()),
        max_size=5,
    ),
    data=st.data(),
)
def test_resume_keeps_the_valid_prefix_and_the_newest_verifying_snapshot(
    journal, snapshots, data
):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        path = directory / JOURNAL_FILENAME
        lines = []
        prefix = 0
        if journal is not None:
            begin_fp, extra = journal
            events = [("begin", {"fingerprint": begin_fp, "seed": 1})] + extra
            lines = [
                JournalRecord(seq, kind, payload).encode()
                for seq, (kind, payload) in enumerate(events)
            ]
            raw = bytearray(b"".join(lines))
            prefix = len(lines)
            if data.draw(st.booleans(), label="flip"):
                at = data.draw(st.integers(0, len(raw) - 1), label="flip_at")
                raw[at] ^= data.draw(st.integers(1, 255), label="mask")
                prefix = min(prefix, _line_of(lines, at))
            if data.draw(st.booleans(), label="truncate"):
                cut = data.draw(st.integers(0, len(raw)), label="cut")
                del raw[cut:]
                prefix = min(prefix, _line_of(lines, cut))
            path.write_bytes(bytes(raw))
        for seq, (written_fp, garbled) in snapshots.items():
            written = write_snapshot(
                directory, seq=seq, identity_fingerprint=written_fp,
                state={"seq": seq},
            )
            if garbled:
                # Any cut before the closing brace leaves invalid JSON.
                whole = written.read_bytes()
                keep = data.draw(st.integers(0, len(whole) - 2), label="keep")
                written.write_bytes(whole[:keep])

        if journal is not None:
            with pytest.raises(JournalError, match="--resume"):
                open_journal(directory, identity_fingerprint=F, resume=False)
        else:
            writer, snapshot, report = open_journal(
                directory, identity_fingerprint=F, resume=False
            )
            writer.close()
            assert snapshot is None and report.clean

        if journal is not None and prefix >= 1 and begin_fp == G:
            with pytest.raises(CheckpointError, match="different") as refused:
                open_journal(directory, identity_fingerprint=F, resume=True)
            assert refused.value.report.records_kept == prefix
            return
        writer, snapshot, report = open_journal(
            directory, identity_fingerprint=F, resume=True
        )
        writer.close()
        assert writer.next_seq == prefix
        on_disk = path.read_bytes() if path.exists() else b""
        assert on_disk == b"".join(lines[:prefix])
        verifying = [
            seq
            for seq, (written_fp, garbled) in snapshots.items()
            if written_fp == F and not garbled
        ]
        newest = max(verifying, default=-1)
        if newest < 0:
            assert snapshot is None and report.snapshot_used is None
        else:
            assert (snapshot.seq, snapshot.state) == (newest, {"seq": newest})
            assert report.snapshot_used == snapshot_path(directory, newest).name
        rejected = {entry.split(":")[0] for entry in report.snapshots_rejected}
        assert rejected == {
            snapshot_path(directory, seq).name
            for seq in snapshots
            if seq > newest
        }
