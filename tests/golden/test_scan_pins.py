"""Golden pin for the streaming scan: one epoch id at every execution shape.

A 10k-host ``StreamingScan`` at seed 2013 must commit this exact epoch
id whatever the backend, worker count or shard count. Worker count and
backend choose how batches run (inline, thread pool, process pool);
shard count cuts the batches differently. None of them may reach the
stored rows, so any refactor of the executor or the batch planner has
to keep this value.
"""

from __future__ import annotations

import pytest

from repro.exec.executor import Executor
from repro.scan.stream import StreamingScan
from repro.store import ResultsStore
from repro.world.population import ShardedPopulationConfig

SEED = 2013
HOSTS = 10_000
SCAN_EPOCH_ID = "5d9df6b0987848c484ce48eee2891e45ccbff625af379eccd7629be570da94fb"


@pytest.mark.parametrize("shard_count", [8, 13])
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_scan_epoch_id(tmp_path, backend, workers, shard_count):
    scan = StreamingScan(
        SEED,
        ShardedPopulationConfig(host_count=HOSTS, shard_count=shard_count),
        batch_size=500,
    )
    summary = scan.run(
        ResultsStore(tmp_path), Executor(workers=workers, backend=backend)
    )
    assert summary.epoch_id == SCAN_EPOCH_ID
