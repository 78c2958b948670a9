"""Golden on-disk format pins for every durable artifact.

Each test writes one artifact from fixed inputs and asserts its
SHA-256, then reads it back through the public reader. Existing
journals, stores, coordinator directories, snapshots and alert ledgers
must keep opening after any change to the write path, so a changed
digest here is a format change, not a refactor.

Files that carry zlib output (store segments, snapshots) pin their
envelope fields and decoded content instead of their bytes, so the pins
do not depend on the zlib build.
"""

from __future__ import annotations

import base64
import hashlib
import json
import zlib

from repro.coord.queue import QueueConfig, WorkQueue
from repro.exec.checkpoint import (
    decode_state,
    fingerprint,
    load_latest_snapshot,
    write_snapshot,
)
from repro.exec.journal import JournalWriter, read_journal
from repro.monitor.alerts import Alert, AlertKind, AlertLedger, read_alerts
from repro.query import QueryEngine, RecordFilter
from repro.store import ResultsStore, build_epoch
from repro.store.merge import load_shard_segment, write_shard_segment
from repro.store.store import COMMIT_LOG_FILENAME, MANIFEST_FILENAME


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fixed_epoch(index: int):
    return build_epoch(
        identity={"seed": index, "isp": f"net-{index}"},
        fingerprint=f"fp-{index}",
        seed=index,
        window=(index * 100, index * 100 + 50),
        records={
            "confirmations": [
                {
                    "product": "vendor-x",
                    "isp": f"net-{index}",
                    "country": "tl",
                    "asn": 65000 + index,
                    "category": "Anonymizers",
                    "confirmed": index % 2 == 0,
                    "note": "café",
                }
            ]
        },
    )


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def test_journal_with_durable_and_group_committed_appends(tmp_path):
    path = tmp_path / "journal.jsonl"
    with JournalWriter.create(path) as writer:
        writer.append("begin", {"seed": 2013, "label": "café"})
        writer.append("round-start", {"round": 0}, durable=False)
        writer.append("round-commit", {"round": 0, "epoch": None})
    assert sha256_of(path) == (
        "751a5d31f5b59440be6b2fa9ed7bb66e0e20216511fa6cd5075e80bc5092f3e6"
    )
    records, report = read_journal(path)
    assert [(r.seq, r.kind) for r in records] == [
        (0, "begin"),
        (1, "round-start"),
        (2, "round-commit"),
    ]
    assert records[0].payload == {"seed": 2013, "label": "café"}
    assert report.clean and report.records_kept == 3


def test_commit_log_and_index_after_three_commits(tmp_path):
    store = ResultsStore(tmp_path)
    ids = [store.commit(fixed_epoch(index)).epoch_id for index in (1, 2, 3)]
    assert sha256_of(tmp_path / COMMIT_LOG_FILENAME) == (
        "d50affe658508c84612dae765124d6c1bac3eb2f37fc2375421124547acb6fd4"
    )
    fresh = ResultsStore(tmp_path)
    assert fresh.epoch_ids() == ids
    assert QueryEngine(fresh).epoch_ids(RecordFilter(isp="net-2")) == [ids[1]]
    assert fresh.records(ids[0], "confirmations") == (
        fixed_epoch(1).records["confirmations"]
    )


def test_commit_log_after_a_damaged_log_heals(tmp_path):
    store = ResultsStore(tmp_path)
    ids = [store.commit(fixed_epoch(index)).epoch_id for index in (1, 2, 3)]
    log = tmp_path / COMMIT_LOG_FILENAME
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(lines[0] + b'{"crc": 1, "rec": {}}\n' + lines[2])
    ResultsStore(tmp_path).commit(fixed_epoch(4))
    assert sha256_of(log) == (
        "efafb7dafd69d329cb11f5677744d713e91f9f370f36c9c3c5bd60daeeb570c0"
    )
    order = ResultsStore(tmp_path).epoch_ids()
    assert len(order) == 4
    assert order[0] == ids[0]
    seqs = [json.loads(line)["rec"]["seq"] for line in log.read_bytes().splitlines()]
    assert seqs == [0, 1, 2, 3]


def test_store_segment_envelope_and_content(tmp_path):
    store = ResultsStore(tmp_path)
    epoch_id = store.commit(fixed_epoch(1)).epoch_id
    manifest = json.loads(
        (tmp_path / "epochs" / epoch_id / MANIFEST_FILENAME).read_text()
    )
    info = dict(manifest["segments"]["confirmations"])
    stored = (tmp_path / "epochs" / epoch_id / info["file"]).read_bytes()
    assert info.pop("stored_bytes") == len(stored)
    assert info == {
        "count": 1,
        "crc32": 1858515565,
        "file": "confirmations.seg",
        "raw_bytes": 127,
        "sha256": (
            "d733f99e754ac270cc06b109b10b8a402bd9deacc7517c859e854a0fa8b451de"
        ),
    }
    raw = zlib.decompress(stored)
    assert hashlib.sha256(raw).hexdigest() == info["sha256"]
    assert store.records(epoch_id, "confirmations") == json.loads(raw)


def test_coordinator_document_and_queue_journal(tmp_path):
    clock = FakeClock()
    queue = WorkQueue.create(
        tmp_path / "coord",
        identity={"kind": "streaming-scan", "seed": 17},
        fingerprint="a" * 64,
        seed=17,
        config=QueueConfig(shard_count=2, lease_ttl=10.0),
        clock=clock,
    )
    assert queue.claim("w1").shard == 0
    clock.now += 4.0
    queue.heartbeat("w1", 0)
    queue.commit(
        "w1",
        0,
        file="shard-00000.w1.json",
        rows_sha256="d" * 64,
        rows=1,
        scanned=10,
        missed=1,
        decoys=1,
    )
    clock.now += 20.0
    assert queue.claim("w2").shard == 1
    assert sha256_of(queue.coordinator_path) == (
        "ef053f238b95826ac4c2c77e697e6801c26bffe1384e890fb1548f20ff85d68b"
    )
    assert sha256_of(queue.queue_path) == (
        "982dca1dcb6ec39cad0a45b825fcaec18d1e4ea1d5e8eab6a9eaaefce89b1170"
    )
    reopened = WorkQueue.open(tmp_path / "coord", clock=clock)
    snapshot = reopened.snapshot()
    assert snapshot.done == (0,)
    assert [(lease.shard, lease.worker) for lease in snapshot.leases] == [
        (1, "w2")
    ]
    assert [commit.worker for commit in reopened.commits()] == ["w1"]


def test_shard_segment(tmp_path):
    path = tmp_path / "shard-00001.w1.json"
    rows = [{"ip": "10.0.0.1", "product": "vendor-x", "note": "café"}]
    written = write_shard_segment(
        path,
        shard=1,
        fingerprint="b" * 64,
        worker="w1",
        rows=rows,
        scanned=50,
        missed=2,
        decoys=3,
    )
    assert sha256_of(path) == (
        "22a68ac46a6c244ea9de3b09ccee872eaaf1a253094123e977b07ab7c187ac14"
    )
    loaded = load_shard_segment(
        path,
        expected_shard=1,
        expected_sha256=written.rows_sha256,
        fingerprint="b" * 64,
    )
    assert loaded == written
    assert list(loaded.rows) == rows


def test_snapshot_envelope_and_content(tmp_path):
    identity = fingerprint({"seed": 2013, "products": ["vendor-x"]})
    assert identity == (
        "920db09d8e5370df56ab96ec2eaf9667d06447ac40268c66dd8811c5fdd436dd"
    )
    state = {"results": {"identify": [1, 2, 3]}, "clock": 525600}
    path = write_snapshot(
        tmp_path, seq=3, identity_fingerprint=identity, state=state
    )
    assert path.name == "snapshot-00000003.ckpt"
    text = path.read_text(encoding="utf-8")
    document = json.loads(text)
    assert text == json.dumps(document, sort_keys=True) + "\n"
    assert sorted(document) == ["blob", "fingerprint", "schema", "seq", "sha256"]
    assert (document["schema"], document["seq"]) == (1, 3)
    assert document["fingerprint"] == identity
    blob = base64.b64decode(document["blob"])
    assert hashlib.sha256(blob).hexdigest() == document["sha256"]
    assert decode_state(document) == state
    assert not list(tmp_path.glob("*.tmp"))
    loaded = load_latest_snapshot(tmp_path, identity_fingerprint=identity)
    assert (loaded.seq, loaded.state) == (3, state)


def test_alert_ledger(tmp_path):
    path = tmp_path / "alerts.jsonl"
    alerts = [
        Alert(AlertKind.APPEARED, "vendor-x", "net-1", 4, 400, "held 2 rounds"),
        Alert(AlertKind.FLAPPING, "vendor-y", "net-2", 9, 900, "3 flips in 6"),
    ]
    with AlertLedger(path) as ledger:
        for alert in alerts:
            assert ledger.record(alert)
    assert sha256_of(path) == (
        "7430f1eec253a37918f9994de249e4f4a4256888cd13da6b5a5443e27a25a16d"
    )
    assert read_alerts(path) == [alert.to_document() for alert in alerts]
