"""Unit tests for the streaming batched scan engine.

Covers the pieces the integration matrix builds on: shard-aligned
batch planning, the per-batch §3 pipeline in :func:`scan_batch`
(keyword match + console validation + fault handling), the
identity/determinism contract, and failure/abort semantics of
:meth:`StreamingScan.run`.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.exec.executor import Executor, StreamStats, TaskFailure
from repro.scan.stream import (
    BatchJob,
    DEFAULT_BATCH_SIZE,
    ScanSummary,
    StreamingScan,
    scan_batch,
)
from repro.store import ResultsStore
from repro.world.faults import FaultPlan
from repro.world.population import ShardedPopulation, ShardedPopulationConfig

SEED = 17


def _config(**overrides):
    defaults = dict(host_count=4_000, shard_count=5)
    defaults.update(overrides)
    return ShardedPopulationConfig(**defaults)


class DescribeJobPlanning:
    def test_jobs_tile_the_population_without_straddling_shards(self):
        config = _config(host_count=4_321, shard_count=7)
        scan = StreamingScan(SEED, config, batch_size=100)
        population = ShardedPopulation(SEED, config)
        boundaries = {
            population.shard_bounds(s) for s in range(config.shard_count)
        }
        starts = {start for start, _ in boundaries}
        cursor = 0
        for job in scan.jobs():
            assert job.start == cursor
            assert job.stop > job.start
            assert job.size <= 100
            # A batch smaller than batch_size must end exactly at a
            # shard boundary — batches never straddle shards.
            if job.size < 100:
                assert any(job.stop == stop for _, stop in boundaries)
            if job.start != 0:
                assert job.start not in starts or job.start in {
                    s for s, _ in boundaries
                }
            cursor = job.stop
        assert cursor == config.host_count

    def test_jobs_restricted_to_shard_subset(self):
        config = _config(host_count=1_000, shard_count=4)
        scan = StreamingScan(SEED, config, batch_size=100)
        population = ShardedPopulation(SEED, config)
        start, stop = population.shard_bounds(2)
        jobs = list(scan.jobs(shards=[2]))
        assert jobs[0].start == start
        assert jobs[-1].stop == stop
        assert sum(job.size for job in jobs) == stop - start

    def test_jobs_are_picklable(self):
        scan = StreamingScan(
            SEED, _config(), fault_plan=FaultPlan(seed=3, reset_rate=0.1)
        )
        job = next(scan.jobs())
        assert pickle.loads(pickle.dumps(job)) == job

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            StreamingScan(SEED, _config(), batch_size=0)
        assert StreamingScan(SEED, _config()).batch_size == DEFAULT_BATCH_SIZE


class DescribeScanBatch:
    def test_accounts_for_every_host(self):
        config = _config(host_count=2_000, shard_count=1)
        result = scan_batch(
            BatchJob(seed=SEED, config=config, start=0, stop=2_000)
        )
        assert result.scanned == 2_000
        assert result.missed == 0
        assert result.decoys > 0
        assert len(result.rows) > 0
        # Decoys carry the keyword but fail validation; they are
        # counted, never emitted as rows.
        assert result.decoys + len(result.rows) < 2_000

    def test_batch_split_is_result_invariant(self):
        config = _config(host_count=1_500, shard_count=1)
        whole = scan_batch(
            BatchJob(seed=SEED, config=config, start=0, stop=1_500)
        )
        halves = [
            scan_batch(BatchJob(seed=SEED, config=config, start=a, stop=b))
            for a, b in ((0, 700), (700, 1_500))
        ]
        assert whole.rows == halves[0].rows + halves[1].rows
        assert whole.missed == sum(h.missed for h in halves)
        assert whole.decoys == sum(h.decoys for h in halves)

    def test_fault_plan_drops_and_degrades_deterministically(self):
        config = _config(host_count=3_000, shard_count=1)
        plan = FaultPlan(
            seed=5, reset_rate=0.05, timeout_rate=0.02, truncate_rate=0.2
        )
        job = BatchJob(
            seed=SEED, config=config, start=0, stop=3_000, fault_plan=plan
        )
        clean = scan_batch(
            BatchJob(seed=SEED, config=config, start=0, stop=3_000)
        )
        faulted = scan_batch(job)
        assert faulted.missed > 0
        assert len(faulted.rows) < len(clean.rows)
        assert scan_batch(job) == faulted  # same plan, same outcome

    def test_row_shape_matches_identification_records(self):
        config = _config(host_count=2_000, shard_count=1)
        result = scan_batch(
            BatchJob(seed=SEED, config=config, start=0, stop=2_000)
        )
        row = result.rows[0]
        assert sorted(row) == [
            "as_name", "asn", "country", "evidence", "ip",
            "org_kind", "org_name", "port", "product",
        ]
        assert row["evidence"][0].startswith("keyword:")
        assert row["as_name"] == f"AS{row['asn']}"


class DescribeStreamingScanRun:
    def test_zero_hit_scan_still_commits_an_epoch(self, tmp_path):
        store = ResultsStore(tmp_path)
        scan = StreamingScan(
            SEED,
            _config(host_count=500, install_rate=0.0, decoy_rate=0.0),
            batch_size=100,
        )
        summary = scan.run(store, Executor(workers=2))
        assert summary.created
        assert summary.hits == 0
        assert store.records(summary.epoch_id, "installations") == []

    def test_identity_excludes_execution_knobs(self):
        config = _config()
        base = StreamingScan(SEED, config).identity()
        assert StreamingScan(SEED, config, batch_size=50).identity() == base
        resharded = ShardedPopulationConfig(
            host_count=config.host_count, shard_count=11
        )
        assert StreamingScan(SEED, resharded).identity() == base
        with_plan = StreamingScan(
            SEED, config, fault_plan=FaultPlan(seed=1, reset_rate=0.1)
        ).identity()
        assert with_plan != base  # the plan changes the observable world

    def test_failed_batch_aborts_without_publishing(self, tmp_path):
        store = ResultsStore(tmp_path)
        scan = StreamingScan(SEED, _config(host_count=1_000), batch_size=100)

        # An executor whose stream delivers an in-slot TaskFailure, the
        # way a batch that exhausted its retries arrives.
        class ExplodingExecutor(Executor):
            def stream(self, fn, items, **kwargs):  # noqa: D102
                yield 0, TaskFailure(
                    label="scan", index=0, attempts=1,
                    cause=ConnectionError("injected"),
                )

        with pytest.raises(TaskFailure):
            scan.run(store, ExplodingExecutor(workers=2))
        assert store.epoch_ids() == []
        leftovers = [
            p for p in (store.root / "epochs").iterdir()
            if p.name.startswith(".stream-")
        ]
        assert leftovers == []

    def test_summary_reconciles_and_serializes(self, tmp_path):
        store = ResultsStore(tmp_path)
        stats = StreamStats()
        scan = StreamingScan(SEED, _config(host_count=2_000), batch_size=250)
        summary = scan.run(
            store, Executor(workers=4), window=4, stats=stats
        )
        assert isinstance(summary, ScanSummary)
        assert summary.scanned == 2_000
        assert summary.batches == stats.completed
        assert summary.peak_inflight <= 4
        assert summary.hits == len(
            store.records(summary.epoch_id, "installations")
        )
        document = summary.to_document()
        assert document["epoch"] == summary.epoch_id
        assert document["hosts_per_second"] == summary.hosts_per_second

    def test_workers_overlap_batch_latency(self, tmp_path):
        """Four thread workers hide the per-batch wait behind each
        other and commit the epoch one worker commits."""
        scan = StreamingScan(
            SEED,
            _config(host_count=4_000, shard_count=4),
            batch_size=500,
            latency=0.05,
        )

        def timed_run(workers):
            store = ResultsStore(tmp_path / f"workers-{workers}")
            started = time.perf_counter()
            summary = scan.run(store, Executor(workers=workers))
            return summary.epoch_id, time.perf_counter() - started

        sequential, sequential_seconds = timed_run(1)
        parallel, parallel_seconds = timed_run(4)
        assert parallel == sequential
        assert parallel_seconds < sequential_seconds / 2
