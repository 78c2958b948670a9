"""Scan-shape invariance of the §3 world scan.

``FullStudy`` with ``workers``/``scan_shards`` set must render the
identification tables byte-identically to the sequential baseline, and
the sharded world scan must refuse the process backend. The streaming
scan's worker/backend/shard matrix is pinned by
``tests/golden/test_scan_pins.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import render_figure1
from repro.core.pipeline import FullStudy
from repro.exec.executor import Executor
from repro.world.scenario import build_scenario

SEED = 2013


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
