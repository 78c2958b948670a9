"""Perf bench — the parallel campaign executor.

Times the full campaign at workers=1 vs workers=8 under a modelled
field-link RTT (the cost the executor's fan-out amortizes, mirroring
§6.1: concurrent campaigns make wall clock the max, not the sum), checks
the two runs produce byte-identical reports, and writes the numbers to
``benchmarks/BENCH_pipeline.json``.
"""

from __future__ import annotations

import json
import os
import time

from repro import Metrics, run_full_study
from repro.analysis.export import to_json
from repro.analysis.report import write_markdown_report

#: Per-request field RTT. 1.5 ms is far below any real in-country link
#: but large enough that fan-out, not Python overhead, dominates.
LINK_LATENCY = 0.0015
PARALLEL_WORKERS = 8

BENCH_PATH = os.path.join(os.path.dirname(__file__), "BENCH_pipeline.json")


def _timed_study(workers, metrics=None):
    started = time.perf_counter()
    report = run_full_study(
        workers=workers, link_latency=LINK_LATENCY, metrics=metrics
    )
    return report, time.perf_counter() - started


def test_parallel_study_faster_and_identical(benchmark):
    sequential_report, sequential_seconds = _timed_study(workers=1)

    metrics = Metrics()
    parallel_report, parallel_seconds = benchmark.pedantic(
        lambda: _timed_study(PARALLEL_WORKERS, metrics), rounds=1, iterations=1
    )

    # Determinism first: parallelism must never change the science.
    assert write_markdown_report(
        sequential_report, seed=2013
    ) == write_markdown_report(parallel_report, seed=2013)
    assert to_json(sequential_report) == to_json(parallel_report)

    speedup = sequential_seconds / parallel_seconds
    counters = metrics.as_dict()["counters"]
    fanout_tasks = {
        name: count
        for name, count in counters.items()
        if name.endswith(".tasks")
    }
    payload = {
        "bench": "pipeline-parallel-executor",
        "link_latency_seconds": LINK_LATENCY,
        "workers_sequential": 1,
        "workers_parallel": PARALLEL_WORKERS,
        "sequential_seconds": round(sequential_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(speedup, 3),
        "reports_identical": True,
        "fanout_tasks": fanout_tasks,
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(
        f"\nworkers=1: {sequential_seconds:.2f}s   "
        f"workers={PARALLEL_WORKERS}: {parallel_seconds:.2f}s   "
        f"speedup {speedup:.2f}x"
    )
    # The pool must beat sequential by a clear margin, not noise.
    assert speedup > 1.2, (
        f"parallel run not faster: {sequential_seconds:.2f}s -> "
        f"{parallel_seconds:.2f}s"
    )

