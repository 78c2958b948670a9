"""Shard-segment reconcile tests: byte-identity and every damage mode.

Committing verified shard segments through ``StreamingScan.commit``
must give the single-machine epoch, byte for byte. A missing shard
result set, a duplicate shard committed by two workers with different
contents, and a CRC-corrupt worker segment must each surface as a
typed :class:`ReconciliationError` subclass with *nothing* committed —
the store must have zero epochs afterwards, never a partial one.
"""

from __future__ import annotations

import json

import pytest

from repro.exec.checkpoint import fingerprint as identity_fingerprint
from repro.exec.executor import Executor
from repro.scan.stream import StreamingScan
from repro.store import ResultsStore
from repro.store.merge import (
    DuplicateShard,
    MissingShard,
    ReconciliationError,
    ShardSegmentDamage,
    ShardSource,
    check_shard_set,
    load_segments,
    load_shard_segment,
    rows_digest,
    write_shard_segment,
)
from repro.world.faults import FaultPlan
from repro.world.population import ShardedPopulationConfig

SEED = 23
CONFIG = ShardedPopulationConfig(host_count=1_500, shard_count=3)
PLAN = FaultPlan(seed=9, reset_rate=0.04, truncate_rate=0.02)


@pytest.fixture(scope="module")
def scan():
    return StreamingScan(SEED, CONFIG, batch_size=250, fault_plan=PLAN)


@pytest.fixture(scope="module")
def shard_results(scan):
    return _scan_shards(scan)


def _scan_shards(scan):
    return [scan.scan_shard(k) for k in range(CONFIG.shard_count)]


def _write_all(tmp_path, scan, shard_results, worker="w"):
    fingerprint = identity_fingerprint(scan.identity())
    sources = []
    for shard, result in enumerate(shard_results):
        path = tmp_path / f"shard-{shard:05d}.{worker}.json"
        segment = write_shard_segment(
            path,
            shard=shard,
            fingerprint=fingerprint,
            worker=worker,
            rows=list(result.rows),
            scanned=result.scanned,
            missed=result.missed,
            decoys=result.decoys,
        )
        sources.append(
            ShardSource(
                shard=shard,
                path=path,
                rows_sha256=segment.rows_sha256,
                worker=worker,
            )
        )
    return fingerprint, sources


def _reconcile(store, scan, fingerprint, sources):
    chosen = check_shard_set(CONFIG.shard_count, sources)
    return scan.commit(store, load_segments(chosen, fingerprint))


class DescribeByteIdentity:
    def test_merge_commits_the_single_machine_epoch_id(
        self, tmp_path, scan, shard_results
    ):
        # A zero-hit population must commit the same empty
        # installations segment on both paths.
        empty = StreamingScan(
            SEED,
            ShardedPopulationConfig(
                host_count=600,
                shard_count=CONFIG.shard_count,
                install_rate=0.0,
                decoy_rate=0.0,
            ),
            batch_size=250,
        )
        cases = [
            ("faulted", scan, shard_results),
            ("zero-hit", empty, _scan_shards(empty)),
        ]
        for name, case_scan, results in cases:
            ref_root = tmp_path / name / "reference"
            reference = case_scan.run(
                ResultsStore(ref_root), Executor(2, backend="thread")
            )
            fingerprint, sources = _write_all(
                tmp_path / name, case_scan, results
            )
            merged_root = tmp_path / name / "merged"
            result = _reconcile(
                ResultsStore(merged_root), case_scan, fingerprint, sources
            )
            assert result.epoch_id == reference.epoch_id, name
            assert result.created is True
            assert result.hits == reference.hits
            assert (result.hits == 0) == (name == "zero-hit")
            # Byte-identical store trees, not just equal ids.
            ref_files = sorted(
                path.relative_to(ref_root)
                for path in ref_root.rglob("*")
                if path.is_file()
            )
            assert any(
                "installations" in str(path) for path in ref_files
            ), name
            for relative in ref_files:
                assert (merged_root / relative).read_bytes() == (
                    ref_root / relative
                ).read_bytes(), (name, relative)

    def test_identical_duplicate_source_is_discarded(
        self, tmp_path, scan, shard_results
    ):
        fingerprint, sources = _write_all(tmp_path, scan, shard_results)
        # A speculative sibling committed shard 1 too, byte-identically.
        result_1 = shard_results[1]
        twin_path = tmp_path / "shard-00001.sibling.json"
        twin = write_shard_segment(
            twin_path,
            shard=1,
            fingerprint=fingerprint,
            worker="sibling",
            rows=list(result_1.rows),
            scanned=result_1.scanned,
            missed=result_1.missed,
            decoys=result_1.decoys,
        )
        sources.append(
            ShardSource(1, twin_path, twin.rows_sha256, worker="sibling")
        )
        # First valid commit wins; the sibling's copy is discarded.
        assert check_shard_set(CONFIG.shard_count, sources) == sources[:3]
        store = ResultsStore(tmp_path / "merged-dup")
        _reconcile(store, scan, fingerprint, sources)
        assert len(store.epoch_ids()) == 1


class DescribeDamageModes:
    def test_missing_shard_refuses_to_publish(
        self, tmp_path, scan, shard_results
    ):
        fingerprint, sources = _write_all(tmp_path, scan, shard_results)
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(MissingShard) as err:
            _reconcile(store, scan, fingerprint, sources[:-1])
        assert err.value.shard == 2
        assert "incomplete epoch" in str(err.value)
        assert store.epoch_ids() == []

    def test_conflicting_duplicate_is_a_duplicate_shard_error(
        self, tmp_path, scan, shard_results
    ):
        fingerprint, sources = _write_all(tmp_path, scan, shard_results)
        rogue_rows = [{"host": "rogue", "product": "netsweeper"}]
        rogue_path = tmp_path / "shard-00000.rogue.json"
        write_shard_segment(
            rogue_path,
            shard=0,
            fingerprint=fingerprint,
            worker="rogue",
            rows=rogue_rows,
            scanned=1,
            missed=0,
            decoys=0,
        )
        sources.append(
            ShardSource(0, rogue_path, rows_digest(rogue_rows), worker="rogue")
        )
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(DuplicateShard) as err:
            _reconcile(store, scan, fingerprint, sources)
        assert err.value.shard == 0
        assert "conflicting contents" in str(err.value)
        assert store.epoch_ids() == []

    def test_crc_corrupt_segment_is_damage_not_an_epoch(
        self, tmp_path, scan, shard_results
    ):
        fingerprint, sources = _write_all(tmp_path, scan, shard_results)
        # Flip one byte inside the winning file for shard 1.
        target = sources[1].path
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        target.write_bytes(bytes(raw))
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(ShardSegmentDamage):
            _reconcile(store, scan, fingerprint, sources)
        assert store.epoch_ids() == []

    def test_cross_identity_segment_is_refused(
        self, tmp_path, scan, shard_results
    ):
        fingerprint, sources = _write_all(tmp_path, scan, shard_results)
        foreign = dict(json.loads(sources[0].path.read_text()))
        store = ResultsStore(tmp_path / "store")
        assert foreign["rec"]["fingerprint"] == fingerprint
        with pytest.raises(ShardSegmentDamage) as err:
            load_shard_segment(
                sources[0].path,
                expected_shard=0,
                fingerprint="0" * 64,
            )
        assert "across identities" in str(err.value)
        assert store.epoch_ids() == []

    def test_replaced_after_commit_is_detected(self, tmp_path, scan):
        path = tmp_path / "shard-00000.w.json"
        write_shard_segment(
            path,
            shard=0,
            fingerprint="f" * 64,
            worker="w",
            rows=[{"host": "a"}],
            scanned=1,
            missed=0,
            decoys=0,
        )
        # The file is valid, but its digest is not the committed one.
        with pytest.raises(ShardSegmentDamage) as err:
            load_shard_segment(
                path, expected_shard=0, expected_sha256="e" * 64
            )
        assert "replaced after commit" in str(err.value)

    def test_vanished_file_and_torn_json_and_wrong_shard(self, tmp_path):
        with pytest.raises(ShardSegmentDamage):
            load_shard_segment(tmp_path / "gone.json", expected_shard=0)
        torn = tmp_path / "torn.json"
        torn.write_text('{"crc": 1, "rec": {"schema"')
        with pytest.raises(ShardSegmentDamage):
            load_shard_segment(torn, expected_shard=0)
        path = tmp_path / "mislabelled.json"
        write_shard_segment(
            path,
            shard=5,
            fingerprint="f" * 64,
            worker="w",
            rows=[],
            scanned=0,
            missed=0,
            decoys=0,
        )
        with pytest.raises(ShardSegmentDamage) as err:
            load_shard_segment(path, expected_shard=4)
        assert "claims shard 5" in str(err.value)

    def test_out_of_range_source_and_bad_shard_count(self, tmp_path, scan):
        with pytest.raises(ReconciliationError):
            check_shard_set(0, [])
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(ReconciliationError):
            _reconcile(
                store,
                scan,
                "f" * 64,
                [ShardSource(7, tmp_path / "x.json", "d" * 64)],
            )
        assert store.epoch_ids() == []
