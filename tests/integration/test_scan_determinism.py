"""Worker/backend/shard invariance matrix for the streaming scan.

The determinism contract: for a fixed seed, the streaming scan commits
the **identical epoch id** — and renders byte-identical tables from
the stored rows — at workers {1, 4, 8}, backends {thread, process},
and any shard count. Execution shape must never leak into results.

The §3 world-scan path gets the same treatment: ``FullStudy`` with
``workers``/``scan_shards`` set must render the identification tables
byte-identically to the sequential baseline.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import render_figure1, render_table1
from repro.core.pipeline import FullStudy
from repro.exec.executor import Executor, StreamStats
from repro.query import QueryEngine
from repro.scan.stream import StreamingScan
from repro.store import ResultsStore
from repro.world.population import ShardedPopulationConfig
from repro.world.scenario import build_scenario

SEED = 2013
HOSTS = 12_000

#: The matrix the acceptance criteria name: workers x backends, plus
#: shard-count variation (free to vary because identity excludes it).
MATRIX = [
    (1, "thread", 8),
    (4, "thread", 8),
    (8, "thread", 8),
    (1, "process", 8),
    (4, "process", 8),
    (8, "process", 8),
    (4, "thread", 3),
    (4, "process", 13),
]


def _scan_once(tmp_path, workers: int, backend: str, shard_count: int):
    store = ResultsStore(tmp_path / f"{workers}-{backend}-{shard_count}")
    scan = StreamingScan(
        SEED,
        ShardedPopulationConfig(host_count=HOSTS, shard_count=shard_count),
        batch_size=500,
    )
    stats = StreamStats()
    summary = scan.run(
        store, Executor(workers=workers, backend=backend), stats=stats
    )
    return store, summary


def test_matrix_commits_identical_epoch(tmp_path):
    results = [
        _scan_once(tmp_path, workers, backend, shards)
        for workers, backend, shards in MATRIX
    ]
    base_store, base = results[0]
    assert base.hits > 0
    epoch_ids = {summary.epoch_id for _, summary in results}
    assert epoch_ids == {base.epoch_id}, (
        f"epoch ids diverged across the matrix: {epoch_ids}"
    )
    # Byte-identical rows and byte-identical Table 1 / Figure 1
    # renderings from every store.
    base_rows = base_store.records(base.epoch_id, "installations")
    base_table1 = render_table1()
    base_figure1 = QueryEngine(base_store).table(
        "figure1", epoch=base.epoch_id
    )
    for store, summary in results[1:]:
        assert store.records(summary.epoch_id, "installations") == base_rows
        engine = QueryEngine(store)
        assert engine.table("table1", epoch=summary.epoch_id) == base_table1
        assert engine.table("figure1", epoch=summary.epoch_id) == base_figure1


def test_matrix_segment_bytes_identical(tmp_path):
    """Stronger than row equality: the stored segment files match."""
    (store_a, a) = _scan_once(tmp_path, 1, "thread", 8)
    (store_b, b) = _scan_once(tmp_path, 8, "process", 5)
    assert a.epoch_id == b.epoch_id
    seg_a = (a_path := store_a.root / "epochs" / a.epoch_id) / "installations.seg"
    seg_b = store_b.root / "epochs" / b.epoch_id / "installations.seg"
    assert seg_a.read_bytes() == seg_b.read_bytes()
    manifest_a = (a_path / "manifest.json").read_bytes()
    manifest_b = (
        store_b.root / "epochs" / b.epoch_id / "manifest.json"
    ).read_bytes()
    assert manifest_a == manifest_b


@pytest.mark.parametrize(
    "workers,shards",
    [(4, 7), (2, None), (4, 3)],
)
def test_full_study_identification_invariant(workers, shards):
    """§3 against the simulated world: same figure at any scan shape."""
    baseline = (
        FullStudy(build_scenario(seed=SEED)).run_identification()
    )
    report = FullStudy(
        build_scenario(seed=SEED),
        workers=workers,
        scan_shards=shards,
    ).run_identification()
    assert render_figure1(report) == render_figure1(baseline)
    assert len(report.installations) == len(baseline.installations)


def test_sharded_world_scan_rejects_process_backend():
    """Worlds are not picklable; the error must be explicit."""
    from repro.scan.banner import scan_world

    scenario = build_scenario(seed=SEED)
    with pytest.raises(ValueError, match="thread backend"):
        scan_world(
            scenario.world,
            executor=Executor(workers=2, backend="process"),
            shards=4,
        )
