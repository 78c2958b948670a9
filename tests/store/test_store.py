"""Tests for the content-addressed epoch store: commits, addressing,
damage modes (torn segments, flipped bytes, log corruption), and the
in-memory secondary indexes."""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import threading
import types
import zlib

import pytest

from repro.store import (
    EpochData,
    ResultsStore,
    SegmentDamage,
    StoreError,
    UnknownEpoch,
    build_epoch,
)
from repro.store import store as store_module
from repro.store.records import INDEX_DIMENSIONS
from repro.store.store import (
    COMMIT_LOG_FILENAME,
    MANIFEST_FILENAME,
    STORE_SCHEMA_VERSION,
)


def tiny_epoch(seed: int = 1, *, isp: str = "testnet", confirmed: bool = True,
               window=(0, 100)) -> EpochData:
    """A minimal synthetic epoch: one confirmation row."""
    return build_epoch(
        identity={"seed": seed, "isp": isp, "confirmed": confirmed},
        fingerprint=f"fp-{seed}-{isp}-{confirmed}",
        seed=seed,
        window=window,
        records={
            "confirmations": [
                {
                    "product": "vendor-x",
                    "isp": isp,
                    "country": "tl",
                    "asn": 65001,
                    "category": "Anonymizers",
                    "confirmed": confirmed,
                    "submitted_at_minutes": window[0],
                    "submitted_outcomes": 3,
                    "blocked_submitted": 3 if confirmed else 0,
                }
            ]
        },
    )


class DescribeContentAddressing:
    def test_identical_content_is_one_epoch(self, tmp_path):
        store = ResultsStore(tmp_path)
        first = store.commit(tiny_epoch())
        second = store.commit(tiny_epoch())
        assert first.created
        assert not second.created
        assert first.epoch_id == second.epoch_id
        assert len(store) == 1

    def test_different_content_different_id(self, tmp_path):
        store = ResultsStore(tmp_path)
        a = store.commit(tiny_epoch(seed=1))
        b = store.commit(tiny_epoch(seed=2))
        assert a.epoch_id != b.epoch_id
        assert len(store) == 2

    def test_commit_order_preserved_not_sorted(self, tmp_path):
        store = ResultsStore(tmp_path)
        ids = [store.commit(tiny_epoch(seed=s)).epoch_id for s in (5, 3, 9)]
        assert store.epoch_ids() == ids
        # a fresh handle reads the same order back from the log
        assert ResultsStore(tmp_path).epoch_ids() == ids

    def test_content_state_tracks_commits(self, tmp_path):
        store = ResultsStore(tmp_path)
        empty = store.content_state()
        store.commit(tiny_epoch())
        assert store.content_state() != empty

    def test_records_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path)
        epoch = tiny_epoch()
        committed = store.commit(epoch)
        rows = store.records(committed.epoch_id, "confirmations")
        assert rows == epoch.records["confirmations"]
        assert store.records(committed.epoch_id, "installations") == []

    def test_verify_clean_epoch(self, tmp_path):
        store = ResultsStore(tmp_path)
        committed = store.commit(tiny_epoch())
        assert store.verify(committed.epoch_id) == []


class DescribeResolve:
    def test_full_id_and_unique_prefix(self, tmp_path):
        store = ResultsStore(tmp_path)
        epoch_id = store.commit(tiny_epoch()).epoch_id
        assert store.resolve(epoch_id) == epoch_id
        assert store.resolve(epoch_id[:8]) == epoch_id

    def test_unknown_reference(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.commit(tiny_epoch())
        with pytest.raises(UnknownEpoch):
            store.resolve("zzzz")

    def test_ambiguous_prefix(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.commit(tiny_epoch(seed=1))
        store.commit(tiny_epoch(seed=2))
        with pytest.raises(StoreError, match="ambiguous"):
            store.resolve("")


class DescribeSegmentDamage:
    def _segment_path(self, store, epoch_id):
        return store.root / "epochs" / epoch_id / "confirmations.seg"

    def test_torn_segment_detected(self, tmp_path):
        store = ResultsStore(tmp_path)
        epoch_id = store.commit(tiny_epoch()).epoch_id
        path = self._segment_path(store, epoch_id)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(SegmentDamage, match="torn or truncated"):
            store.records(epoch_id, "confirmations")

    def test_crc_mismatch_detected(self, tmp_path):
        store = ResultsStore(tmp_path)
        epoch_id = store.commit(tiny_epoch()).epoch_id
        path = self._segment_path(store, epoch_id)
        # Re-compress tampered rows: decompression succeeds but the
        # stored CRC32 no longer matches the raw bytes.
        raw = zlib.decompress(path.read_bytes())
        tampered = raw.replace(b'"confirmed":true', b'"confirmed":null')
        assert tampered != raw
        path.write_bytes(zlib.compress(tampered, 6))
        with pytest.raises(SegmentDamage, match="CRC32"):
            store.records(epoch_id, "confirmations")

    def test_missing_segment_detected(self, tmp_path):
        store = ResultsStore(tmp_path)
        epoch_id = store.commit(tiny_epoch()).epoch_id
        self._segment_path(store, epoch_id).unlink()
        with pytest.raises(SegmentDamage, match="unreadable"):
            store.records(epoch_id, "confirmations")

    def test_verify_reports_damage(self, tmp_path):
        store = ResultsStore(tmp_path)
        epoch_id = store.commit(tiny_epoch()).epoch_id
        path = self._segment_path(store, epoch_id)
        path.write_bytes(b"\x00\x01")
        problems = store.verify(epoch_id)
        assert problems and "confirmations" in problems[0]

    def test_manifest_claiming_wrong_id_detected(self, tmp_path):
        store = ResultsStore(tmp_path)
        epoch_id = store.commit(tiny_epoch()).epoch_id
        manifest_path = store.root / "epochs" / epoch_id / MANIFEST_FILENAME
        document = json.loads(manifest_path.read_text())
        document["epoch"] = "0" * 64  # claims to be a different epoch
        manifest_path.write_text(json.dumps(document))
        fresh = ResultsStore(tmp_path)
        with pytest.raises(StoreError, match="mismatch"):
            fresh.manifest(epoch_id)

    def test_verify_catches_silently_edited_manifest(self, tmp_path):
        store = ResultsStore(tmp_path)
        epoch_id = store.commit(tiny_epoch()).epoch_id
        manifest_path = store.root / "epochs" / epoch_id / MANIFEST_FILENAME
        document = json.loads(manifest_path.read_text())
        document["seed"] = 999  # silently altered science
        manifest_path.write_text(json.dumps(document))
        problems = ResultsStore(tmp_path).verify(epoch_id)
        assert any("does not hash" in problem for problem in problems)


class DescribeCommitLogRecovery:
    def test_torn_tail_recovers_valid_prefix(self, tmp_path):
        store = ResultsStore(tmp_path)
        ids = [store.commit(tiny_epoch(seed=s)).epoch_id for s in (1, 2)]
        log = tmp_path / COMMIT_LOG_FILENAME
        log.write_bytes(log.read_bytes()[:-10])  # tear the last line
        fresh = ResultsStore(tmp_path)
        # Both epochs still reachable: valid prefix + orphan recovery.
        assert set(fresh.epoch_ids()) == set(ids)
        assert fresh.epoch_ids()[0] == ids[0]

    def test_garbage_line_recovers(self, tmp_path):
        store = ResultsStore(tmp_path)
        ids = [store.commit(tiny_epoch(seed=s)).epoch_id for s in (1, 2, 3)]
        log = tmp_path / COMMIT_LOG_FILENAME
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(lines[0] + b'{"not": "valid record"}\n' + lines[2])
        fresh = ResultsStore(tmp_path)
        recovered = fresh.epoch_ids()
        assert set(recovered) == set(ids)
        assert recovered[0] == ids[0]

    def test_deleted_log_recovers_from_directories(self, tmp_path):
        store = ResultsStore(tmp_path)
        ids = {store.commit(tiny_epoch(seed=s)).epoch_id for s in (1, 2)}
        (tmp_path / COMMIT_LOG_FILENAME).unlink()
        assert set(ResultsStore(tmp_path).epoch_ids()) == ids

    def test_next_commit_heals_damaged_log(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.commit(tiny_epoch(seed=1))
        (tmp_path / COMMIT_LOG_FILENAME).unlink()
        fresh = ResultsStore(tmp_path)
        fresh.commit(tiny_epoch(seed=2))
        # The rewrite healed the log: a third handle reads it cleanly.
        final = ResultsStore(tmp_path)
        order, = [final.epoch_ids()]
        assert len(order) == 2
        log_lines = (tmp_path / COMMIT_LOG_FILENAME).read_text().strip().split("\n")
        assert len(log_lines) == 2

    def test_retried_commit_lands_in_commit_order(self, tmp_path, monkeypatch):
        # The log append fails after each epoch directory is renamed
        # into place, for A and then B, and B's id sorts first.
        probe = ResultsStore(tmp_path / "probe")
        epochs = {
            probe.commit(tiny_epoch(seed=s)).epoch_id: tiny_epoch(seed=s)
            for s in (1, 2)
        }
        second_id, first_id = sorted(epochs)
        store = ResultsStore(tmp_path / "store")
        append = ResultsStore._append_commit_log

        def unwritable_log(self, epoch_id, **kwargs):
            raise OSError("simulated log append failure")

        monkeypatch.setattr(ResultsStore, "_append_commit_log", unwritable_log)
        for epoch_id in (first_id, second_id):
            with pytest.raises(OSError):
                store.commit(epochs[epoch_id])
        monkeypatch.setattr(ResultsStore, "_append_commit_log", append)
        # The caller retries both in order, as the monitor's buffer does.
        for epoch_id in (first_id, second_id):
            store.commit(epochs[epoch_id])
        assert store.epoch_ids() == [first_id, second_id]
        assert ResultsStore(tmp_path / "store").epoch_ids() == [
            first_id,
            second_id,
        ]


class DescribeIndexes:
    def test_lookup_by_every_dimension(self, tmp_path):
        store = ResultsStore(tmp_path)
        epoch_id = store.commit(tiny_epoch()).epoch_id
        assert store.lookup("isp", "testnet") == [epoch_id]
        assert store.lookup("country", "tl") == [epoch_id]
        assert store.lookup("asn", "65001") == [epoch_id]
        assert store.lookup("product", "vendor-x") == [epoch_id]
        assert store.lookup("category", "Anonymizers") == [epoch_id]
        assert store.lookup("isp", "elsewhere") == []

    def test_unknown_dimension_rejected(self, tmp_path):
        store = ResultsStore(tmp_path)
        with pytest.raises(StoreError, match="dimension"):
            store.index("vendor")

    def test_commit_writes_no_index_files(self, tmp_path):
        store = ResultsStore(tmp_path)
        epoch_id = store.commit(tiny_epoch()).epoch_id
        assert store.lookup("isp", "testnet") == [epoch_id]
        assert {path.name for path in tmp_path.iterdir()} == {
            "epochs",
            COMMIT_LOG_FILENAME,
        }

    def test_stale_index_rebuilt(self, tmp_path):
        # A stale index file left by an older version is never read:
        # lookups rebuild the index from the manifests.
        store = ResultsStore(tmp_path)
        epoch_id = store.commit(tiny_epoch()).epoch_id
        indexes = tmp_path / "indexes"
        indexes.mkdir()
        stale = {
            "schema": STORE_SCHEMA_VERSION,
            "epochs": ["deadbeef"],  # claims a different epoch set
            "keys": {"bogus": ["deadbeef"]},
        }
        (indexes / "isp.json").write_text(json.dumps(stale))
        fresh = ResultsStore(tmp_path)
        assert fresh.lookup("isp", "testnet") == [epoch_id]
        assert fresh.lookup("isp", "bogus") == []

    def test_corrupt_index_file_rebuilt(self, tmp_path):
        # A damaged index file left by an older version is never read.
        store = ResultsStore(tmp_path)
        epoch_id = store.commit(tiny_epoch()).epoch_id
        indexes = tmp_path / "indexes"
        indexes.mkdir()
        (indexes / "country.json").write_text("{not json")
        assert ResultsStore(tmp_path).lookup("country", "tl") == [epoch_id]


def varied_epoch(n: int) -> EpochData:
    """Epoch ``n`` of a series whose index keys overlap and keep growing."""
    return build_epoch(
        identity={"n": n},
        fingerprint=f"fp-{n}",
        seed=n,
        window=(n, n + 10),
        records={
            "confirmations": [
                {
                    "product": f"vendor-{n % 3}",
                    "isp": f"isp-{n % 7}",
                    "country": ("tl", "ae", "ye", "qa")[n % 4],
                    "asn": 65000 + n // 4,
                    "category": "Anonymizers",
                    "confirmed": n % 2 == 0,
                }
            ]
        },
    )


def index_answers(store):
    """Every index, and every lookup they imply plus an absent key."""
    indexes = {
        dimension: store.index(dimension) for dimension in INDEX_DIMENSIONS
    }
    lookups = {
        (dimension, key): store.lookup(dimension, key)
        for dimension, keys in indexes.items()
        for key in list(keys) + ["absent"]
    }
    return indexes, lookups


def logged_records(root):
    lines = (root / COMMIT_LOG_FILENAME).read_bytes().splitlines()
    return [json.loads(line)["rec"] for line in lines]


class DescribeCommitFastPath:
    def test_folded_indexes_equal_a_rebuild(self, tmp_path):
        # A long-lived instance folds new commits into what it folded
        # before (one commit, or two after a skipped look); a fresh one
        # folds every manifest at once.
        store = ResultsStore(tmp_path)
        for n in range(30):
            store.commit(varied_epoch(n))
            if n % 4 != 3:
                assert index_answers(store) == index_answers(
                    ResultsStore(tmp_path)
                )
        assert len(store.index("asn")) == 8

    def test_reordered_log_rebuilds_the_indexes(self, tmp_path):
        store = ResultsStore(tmp_path)
        ids = [store.commit(varied_epoch(n)).epoch_id for n in range(6)]
        assert ids != sorted(ids)
        assert store.lookup("country", "tl") == [ids[0], ids[4]]
        # Losing the log re-adopts the epochs in name order, which no
        # longer extends the order the in-memory indexes were built for.
        (tmp_path / COMMIT_LOG_FILENAME).unlink()
        last = store.commit(varied_epoch(6)).epoch_id
        assert store.epoch_ids() == sorted(ids) + [last]
        assert index_answers(store) == index_answers(ResultsStore(tmp_path))
        assert store.lookup("country", "tl") == sorted([ids[0], ids[4]])
        assert store.lookup("country", "ye") == [ids[2], last]

    def test_alternating_writers_keep_the_log_contiguous(self, tmp_path):
        first, second = ResultsStore(tmp_path), ResultsStore(tmp_path)
        ids = []
        for n in range(12):
            ids.append((first, second)[n % 2].commit(varied_epoch(n)).epoch_id)
            # Each writer's indexes take in the other's commits too.
            expected = index_answers(ResultsStore(tmp_path))
            assert index_answers(first) == index_answers(second) == expected
        records = logged_records(tmp_path)
        assert [rec["seq"] for rec in records] == list(range(12))
        assert [rec["epoch"] for rec in records] == ids
        assert first.epoch_ids() == second.epoch_ids() == ids
        assert ResultsStore(tmp_path).epoch_ids() == ids

    def test_orphan_is_logged_before_the_next_commit(self, tmp_path):
        probe = ResultsStore(tmp_path / "probe")
        orphan = probe.commit(varied_epoch(1)).epoch_id
        store = ResultsStore(tmp_path / "store")
        first = store.commit(varied_epoch(0)).epoch_id
        store.epoch_ids()  # warm the order cache
        shutil.copytree(
            tmp_path / "probe" / "epochs" / orphan,
            tmp_path / "store" / "epochs" / orphan,
        )
        last = store.commit(varied_epoch(2)).epoch_id
        records = logged_records(tmp_path / "store")
        assert [rec["epoch"] for rec in records] == [first, orphan, last]
        assert [rec["seq"] for rec in records] == [0, 1, 2]
        assert store.epoch_ids() == [first, orphan, last]
        assert store.lookup("isp", "isp-1") == [orphan]

    def test_append_racing_ours_drops_the_order_cache(
        self, tmp_path, monkeypatch
    ):
        # Another writer publishes and logs an epoch right after this
        # instance's append lands, before it looks at the log again.
        probe = ResultsStore(tmp_path / "probe")
        racer = probe.commit(varied_epoch(1)).epoch_id
        store = ResultsStore(tmp_path / "store")
        first = store.commit(varied_epoch(0)).epoch_id
        append = store_module.append_frames

        def raced_append(path, recs):
            written = append(path, recs)
            monkeypatch.undo()
            shutil.copytree(
                tmp_path / "probe" / "epochs" / racer,
                tmp_path / "store" / "epochs" / racer,
            )
            append(path, [{"seq": 2, "v": STORE_SCHEMA_VERSION, "epoch": racer}])
            return written

        monkeypatch.setattr(store_module, "append_frames", raced_append)
        second = store.commit(varied_epoch(2)).epoch_id
        third = store.commit(varied_epoch(3)).epoch_id
        records = logged_records(tmp_path / "store")
        assert [rec["seq"] for rec in records] == [0, 1, 2, 3]
        assert [rec["epoch"] for rec in records] == [first, second, racer, third]
        assert store.epoch_ids() == [first, second, racer, third]

    def test_concurrent_lookups_rebuild_missing_indexes(self, tmp_path):
        # A fresh instance holds no indexes yet, so eight threads fold
        # them at once; each must get the serial answers.
        store = ResultsStore(tmp_path)
        for n in range(20):
            store.commit(varied_epoch(n))
        serial = index_answers(ResultsStore(tmp_path))
        fresh = ResultsStore(tmp_path)
        start = threading.Barrier(8, timeout=30)
        answers, errors = {}, []

        def look_up(worker):
            start.wait()
            try:
                answers[worker] = index_answers(fresh)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=look_up, args=(worker,))
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
        assert answers == {worker: serial for worker in range(8)}


def order_digest(store):
    return hashlib.sha256(
        "\n".join(store.epoch_ids()).encode("utf-8")
    ).hexdigest()


class DescribeContentState:
    def test_id_list_is_hashed_once_per_log_state(
        self, tmp_path, monkeypatch
    ):
        store = ResultsStore(tmp_path)
        for n in range(3):
            store.commit(varied_epoch(n))
        joined = "\n".join(store.epoch_ids()).encode("utf-8")
        hashed = []

        def sha256(data=b""):
            if data == joined:
                hashed.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(
            store_module, "hashlib", types.SimpleNamespace(sha256=sha256)
        )
        first = store.content_state()
        assert [store.content_state() for _ in range(4)] == [first] * 4
        assert len(hashed) == 1
        assert first == order_digest(store)
        # A commit through another instance on the same root changes
        # the log, so this instance's answer moves with it.
        ResultsStore(tmp_path).commit(varied_epoch(3))
        assert store.content_state() != first
        assert store.content_state() == order_digest(store)

    def test_readers_follow_a_concurrent_writer(self, tmp_path):
        # Eight threads read one instance while another instance
        # commits: every answer is the digest of a committed prefix,
        # and once the writer stops the reader answers for all of it.
        reader = ResultsStore(tmp_path)
        writer = ResultsStore(tmp_path)
        writer.commit(varied_epoch(0))
        seen = []
        stop = threading.Event()

        def read():
            while not stop.is_set():
                seen.append(reader.content_state())

        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for n in range(1, 16):
                writer.commit(varied_epoch(n))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        order = writer.epoch_ids()
        prefixes = {
            hashlib.sha256("\n".join(order[:k]).encode("utf-8")).hexdigest()
            for k in range(1, len(order) + 1)
        }
        assert seen and set(seen) <= prefixes
        assert reader.content_state() == order_digest(writer)

    def test_damaged_log_is_hashed_per_call(self, tmp_path):
        # A torn log's order is never cached, so an epoch directory
        # that lands without a log record (a writer that died before
        # its append) changes the answer although the log did not.
        root = tmp_path / "store"
        store = ResultsStore(root)
        for n in range(2):
            store.commit(varied_epoch(n))
        log = root / COMMIT_LOG_FILENAME
        log.write_bytes(log.read_bytes()[:-10])
        fresh = ResultsStore(root)
        before = fresh.content_state()
        assert fresh.content_state() == before
        orphan = ResultsStore(tmp_path / "probe").commit(varied_epoch(2))
        shutil.copytree(orphan.path, root / "epochs" / orphan.epoch_id)
        assert fresh.content_state() != before
        assert fresh.content_state() == order_digest(fresh)


class DescribeEpochValidation:
    def test_unknown_record_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown record kinds"):
            build_epoch(
                identity={"seed": 1},
                fingerprint="fp",
                seed=1,
                window=(0, 1),
                records={"surprises": []},
            )

    def test_backwards_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            build_epoch(
                identity={"seed": 1},
                fingerprint="fp",
                seed=1,
                window=(10, 5),
                records={},
            )

    def test_keys_derived_from_rows(self, tmp_path):
        store = ResultsStore(tmp_path)
        keys = store.manifest(store.commit(tiny_epoch()).epoch_id).keys
        assert keys["isp"] == ("testnet",)
        assert keys["asn"] == ("65001",)
        assert keys["country"] == ("tl",)
