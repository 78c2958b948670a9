"""Golden pin for blocked-URL discovery: lists, traces and candidates.

One digest taken at seed 2013 over the benchmark's discover unit: build
the static-list baseline for four censored vantages, then crawl each
one from its first five baseline URLs with one shared ``SearchIndex``.
Per vantage it folds in the discovered list, the convergence trace and
every probed candidate's ``(url, source, round_index, verdict, vendor,
repr(confidence))``, so a change to any verdict, vendor attribution or
frontier order moves it.

The same digest must come out when every engine fans its probes out
over four workers, and the benchmark's own list digest must hold too.
"""

from __future__ import annotations

import hashlib

from repro.discover import DiscoveryEngine, SearchIndex, static_baseline
from repro.exec.executor import Executor
from repro.world.scenario import build_scenario

SEED = 2013
ISPS = ("etisalat", "du", "yemennet", "ooredoo")
SEEDS_PER_ISP = 5
DISCOVER_SHA256 = (
    "d88fd738efc2776763973a8418ec01269d7105c1a4c8e1b22df396b0ed9a2f6a"
)
#: ``PINNED["discover"]`` in bench/workloads.py: a SHA-256 over each
#: vantage's name and the SHA-256 of its discovered list.
BENCH_LIST_SHA256 = (
    "fe35a51d3f2788b1cfb82839b3b68d20c97a513c73d149f48fd2b59f6b3b0b24"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _crawl(executor=None):
    world = build_scenario(seed=SEED).world
    index = SearchIndex.build(world)
    baselines = {
        isp: static_baseline(world, isp, executor=executor) for isp in ISPS
    }
    return [
        DiscoveryEngine(world, isp, index=index, executor=executor).run(
            baselines[isp][:SEEDS_PER_ISP]
        )
        for isp in ISPS
    ]


def _digest(results) -> str:
    lines = []
    for result in results:
        lines.append(f"== {result.isp_name}\n")
        lines.append(result.discovered_list_text())
        lines.append("-- trace\n")
        lines.append(result.trace_text())
        lines.append("-- candidates\n")
        lines.extend(
            f"{c.url}\t{c.source}\t{c.round_index}\t{c.verdict}\t"
            f"{c.vendor}\t{c.confidence!r}\n"
            for c in result.candidates
        )
    return _sha256("".join(lines))


def _bench_list_digest(results) -> str:
    return _sha256(
        "".join(
            f"{result.isp_name} {_sha256(result.discovered_list_text())}\n"
            for result in results
        )
    )


def test_discovery_digest_at_one_worker():
    results = _crawl()
    assert all(result.converged for result in results)
    assert _bench_list_digest(results) == BENCH_LIST_SHA256
    assert _digest(results) == DISCOVER_SHA256


def test_discovery_digest_at_four_workers():
    assert _digest(_crawl(Executor(workers=4))) == DISCOVER_SHA256
