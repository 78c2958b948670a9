"""The write-ahead journal and atomic snapshots in isolation.

Covers the durability contract of :mod:`repro.exec.journal` and
:mod:`repro.exec.checkpoint` without running a study: damage must
degrade to the longest valid prefix plus an explicit recovery report —
never an exception — ``atomic_write`` must leave the old file or the
new one and no temp file, and snapshot writes must be atomic and
self-verifying. Torn tails, CRC corruption, sequence breaks and resume
truncation are covered for every framed log by the properties in
``test_framed_log.py``.
"""

import json
import os
import sys
import threading
import zlib

import pytest

from repro.exec.checkpoint import (
    SNAPSHOT_SCHEMA_VERSION,
    ListFrames,
    decode_state,
    encode_state,
    fingerprint,
    list_snapshots,
    load_latest_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.exec.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    JournalWriter,
    RecoveryReport,
    atomic_write,
    read_journal,
)


def write_records(path, kinds):
    writer = JournalWriter.create(path)
    for index, kind in enumerate(kinds):
        writer.append(kind, {"index": index})
    writer.close()
    return writer


def flip_seq_key(data):
    """One flipped bit that turns a snapshot's "seq" key into "req"."""
    data = bytearray(data)
    data[data.index(b'"seq"') + 1] ^= 0x01
    return bytes(data)


class DescribeJournalWriter:
    def test_round_trips_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, ["begin", "unit-start", "unit-commit"])
        records, report = read_journal(path)
        assert [r.kind for r in records] == ["begin", "unit-start", "unit-commit"]
        assert [r.seq for r in records] == [0, 1, 2]
        assert records[2].payload == {"index": 2}
        assert report.clean
        assert report.records_kept == 3
        assert report.records_discarded == 0

    def test_refuses_to_clobber_an_existing_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, ["begin"])
        with pytest.raises(JournalError, match="already exists"):
            JournalWriter.create(path)

    def test_reads_a_missing_journal_as_empty(self, tmp_path):
        records, report = read_journal(tmp_path / "absent.jsonl")
        assert records == []
        assert report.records_kept == 0

    def test_invokes_the_after_write_hook_per_record(self, tmp_path):
        seen = []
        writer = JournalWriter.create(
            tmp_path / "journal.jsonl", after_write=seen.append
        )
        writer.append("begin", {})
        writer.append("unit-start", {"key": "identify"})
        writer.close()
        assert [record.kind for record in seen] == ["begin", "unit-start"]

    def test_continues_sequence_numbers_across_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, ["begin", "unit-start"])
        writer, records, report = JournalWriter.resume(path)
        assert writer.next_seq == 2
        writer.append("unit-commit", {})
        writer.close()
        records, report = read_journal(path)
        assert [r.seq for r in records] == [0, 1, 2]
        assert report.clean


class DescribeJournalDamage:
    def test_treats_version_skew_like_corruption(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, ["begin"])
        body = json.dumps(
            {
                "kind": "unit-start",
                "payload": {},
                "seq": 1,
                "v": JOURNAL_SCHEMA_VERSION + 1,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        crc = zlib.crc32(body.encode("utf-8"))
        with open(path, "ab") as handle:
            handle.write(f'{{"crc": {crc}, "rec": {body}}}\n'.encode("utf-8"))
        records, report = read_journal(path)
        assert [r.kind for r in records] == ["begin"]
        assert any("version skew" in note for note in report.notes)

    def test_never_raises_on_arbitrary_garbage(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b"\xff\xfe not json at all\n[1,2,3]\n")
        records, report = read_journal(path)
        assert records == []
        assert report.records_kept == 0
        assert not report.clean


class DescribeAtomicWrite:
    def test_failed_replace_keeps_old_bytes_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "state.json"
        atomic_write(path, b"old")

        def failing_replace(source, target):
            raise OSError("simulated rename failure")

        monkeypatch.setattr("os.replace", failing_replace)
        with pytest.raises(OSError, match="simulated rename failure"):
            atomic_write(path, b"new")
        monkeypatch.undo()
        assert path.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_concurrent_writers_of_one_path_never_collide(self, tmp_path):
        # Each call writes a temp file of its own, so no writer truncates
        # or renames another's: the survivor is one writer's whole bytes.
        path = tmp_path / "state.json"
        payloads = [bytes([65 + worker]) * 65536 for worker in range(8)]
        start = threading.Barrier(8, timeout=30)
        errors = []

        def write(worker):
            start.wait()
            try:
                for _ in range(10):
                    atomic_write(path, payloads[worker])
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(worker,))
            for worker in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert path.read_bytes() in payloads
        assert list(tmp_path.glob("*.tmp")) == []

    def test_file_mode_matches_a_plain_open(self, tmp_path):
        umask = os.umask(0o022)
        try:
            atomic_write(tmp_path / "written", b"x")
            (tmp_path / "opened").write_bytes(b"x")
        finally:
            os.umask(umask)
        assert (tmp_path / "written").stat().st_mode == (
            (tmp_path / "opened").stat().st_mode
        )


class DescribeSnapshots:
    FP = fingerprint({"seed": 1, "products": None})

    def test_round_trips_state_atomically(self, tmp_path):
        state = {"results": {"identify": [1, 2, 3]}, "clock": 525600}
        write_snapshot(
            tmp_path, seq=4, identity_fingerprint=self.FP, state=state
        )
        report = RecoveryReport()
        snapshot = load_latest_snapshot(
            tmp_path, identity_fingerprint=self.FP, report=report
        )
        assert snapshot is not None
        assert snapshot.seq == 4
        assert snapshot.state == state
        assert report.snapshot_used == snapshot.path.name
        assert not report.snapshots_rejected
        # No temp residue after a successful write.
        assert not list(tmp_path.glob("*.tmp"))

    def test_prefers_the_newest_snapshot(self, tmp_path):
        for seq in (1, 2, 3):
            write_snapshot(
                tmp_path,
                seq=seq,
                identity_fingerprint=self.FP,
                state={"done": seq},
            )
        snapshot = load_latest_snapshot(tmp_path, identity_fingerprint=self.FP)
        assert snapshot.seq == 3
        assert [p.name for p in list_snapshots(tmp_path)] == [
            snapshot_path(tmp_path, seq).name for seq in (1, 2, 3)
        ]

    def test_falls_back_when_the_newest_is_corrupt(self, tmp_path):
        for seq in (1, 2):
            write_snapshot(
                tmp_path,
                seq=seq,
                identity_fingerprint=self.FP,
                state={"done": seq},
            )
        newest = snapshot_path(tmp_path, 2)
        document = json.loads(newest.read_text())
        document["blob"] = document["blob"][:-8] + "AAAAAAA="
        newest.write_text(json.dumps(document))
        report = RecoveryReport()
        snapshot = load_latest_snapshot(
            tmp_path, identity_fingerprint=self.FP, report=report
        )
        assert snapshot.seq == 1
        assert len(report.snapshots_rejected) == 1
        assert "snapshot-00000002" in report.snapshots_rejected[0]

    def test_rejects_identity_mismatches(self, tmp_path):
        write_snapshot(
            tmp_path, seq=1, identity_fingerprint=self.FP, state={"done": 1}
        )
        other = fingerprint({"seed": 2, "products": None})
        report = RecoveryReport()
        snapshot = load_latest_snapshot(
            tmp_path, identity_fingerprint=other, report=report
        )
        assert snapshot is None
        assert any(
            "identity mismatch" in entry for entry in report.snapshots_rejected
        )

    def test_rejects_schema_skew(self, tmp_path):
        path = write_snapshot(
            tmp_path, seq=1, identity_fingerprint=self.FP, state={}
        )
        document = json.loads(path.read_text())
        document["schema"] = SNAPSHOT_SCHEMA_VERSION + 1
        path.write_text(json.dumps(document))
        report = RecoveryReport()
        assert (
            load_latest_snapshot(
                tmp_path, identity_fingerprint=self.FP, report=report
            )
            is None
        )
        assert any(
            "version skew" in entry for entry in report.snapshots_rejected
        )

    @pytest.mark.parametrize(
        "damage",
        [flip_seq_key, lambda data: b"[1, 2, 3]\n"],
        ids=["seq-key-bit-flip", "json-array"],
    )
    def test_skips_a_malformed_envelope(self, tmp_path, damage):
        for seq in (1, 2):
            write_snapshot(
                tmp_path,
                seq=seq,
                identity_fingerprint=self.FP,
                state={"done": seq},
            )
        newest = snapshot_path(tmp_path, 2)
        newest.write_bytes(damage(newest.read_bytes()))
        report = RecoveryReport()
        snapshot = load_latest_snapshot(
            tmp_path, identity_fingerprint=self.FP, report=report
        )
        assert snapshot.seq == 1 and snapshot.state == {"done": 1}
        assert len(report.snapshots_rejected) == 1
        assert report.snapshots_rejected[0].startswith(
            "snapshot-00000002.ckpt: malformed envelope"
        )

    def test_ignores_leftover_temp_files(self, tmp_path):
        write_snapshot(
            tmp_path, seq=1, identity_fingerprint=self.FP, state={"done": 1}
        )
        (tmp_path / "snapshot-00000002.ckpt.tmp").write_text("half written")
        snapshot = load_latest_snapshot(tmp_path, identity_fingerprint=self.FP)
        assert snapshot.seq == 1

    def test_detects_blob_tampering_via_sha256(self):
        encoded = encode_state({"a": 1})
        assert decode_state(encoded) == {"a": 1}
        tampered = dict(encoded)
        tampered["sha256"] = "0" * 64
        with pytest.raises(ValueError, match="SHA-256 mismatch"):
            decode_state(tampered)

    def test_list_frames_pickle_each_item_once(self):
        items = [[index] for index in range(5)]
        frames = ListFrames()
        assert decode_state(encode_state({"x": frames.encode(items[:2])})) == {
            "x": items[:2]
        }
        encoded = frames.encode(items)
        assert frames.frame_count == 2
        assert decode_state(encode_state(encoded)) == items
        # Nothing new: no new frame.
        frames.encode(items)
        assert frames.frame_count == 2
        # A framed item replaced, or dropped: everything is framed again.
        frames.encode([[0]] + items[1:])
        assert frames.frame_count == 1
        encoded = frames.encode(items[1:])
        assert frames.frame_count == 1
        assert decode_state(encode_state(encoded)) == items[1:]

    def test_fingerprints_identity_order_independently(self):
        a = fingerprint({"seed": 1, "products": ["x"]})
        b = fingerprint({"products": ["x"], "seed": 1})
        assert a == b
        assert a != fingerprint({"seed": 2, "products": ["x"]})


class DescribeRecoveryReport:
    def test_describes_damage_and_resume_point(self, tmp_path):
        report = RecoveryReport(journal_path="j", records_kept=3)
        report.records_discarded = 2
        report.note("torn tail")
        report.snapshots_rejected.append("snapshot-00000002.ckpt: bad")
        report.snapshot_used = "snapshot-00000001.ckpt"
        report.units_replayed = ["confirm:a", "characterize:b"]
        lines = report.describe()
        text = "\n".join(lines)
        assert "3 record(s) kept" in text
        assert "torn tail" in text
        assert "snapshot-00000001.ckpt" in text
        assert "replaying 2 unit(s)" in text
        assert not report.clean
        assert RecoveryReport().clean
