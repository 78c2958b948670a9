#!/usr/bin/env python3
"""Smoke-test the serving API end to end over real HTTP.

Builds (or reuses) a two-epoch results store, starts ``ResultsServer``
on an ephemeral port, and drives every endpoint family the API exposes,
asserting the full status-code contract:

* 200 on every well-formed read (listing, manifest, records — including
  a ``min_confidence`` filter — tables, drill-downs, diff, healthz,
  metrics, the ``/monitor/*`` operator surface, and the
  ``/discover/*`` discovery surface — checked both before any
  discovery epoch exists, when it must 404, and after one commits),
* 304 on revalidation with the ETag each 200 returned,
* 400 on malformed filter parameters (``min_confidence``),
* 404 on unknown paths, epochs, record kinds, table names, and unknown
  ``/monitor/*`` endpoints.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--store DIR]

With ``--store`` the existing store is served as-is (it must hold at
least two epochs so ``/diff`` has a pair to compare); without it a
temporary store is populated by two campaign runs. Exits 0 only if
every check passes; prints one line per check.
"""

from __future__ import annotations

import argparse
import http.client
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple


def build_store(root: Path):
    from repro.core.pipeline import run_full_study
    from repro.products.registry import SMARTFILTER
    from repro.store import ResultsStore

    run_full_study(products=[SMARTFILTER], store_dir=root)
    run_full_study(store_dir=root)
    return ResultsStore(root)


def commit_discovery(store) -> None:
    """Commit a small-world discovery epoch so /discover/* has rows."""
    from repro.discover import (
        CoverageReport,
        DiscoveryConfig,
        DiscoveryEngine,
        static_baseline,
    )
    from repro.store import discovery_epoch
    from repro.world.scenario import ScenarioConfig, build_scenario

    scenario = build_scenario(config=ScenarioConfig(population_size=220))
    world = scenario.world
    window_start = world.now.minutes
    baseline = static_baseline(world, "etisalat")
    config = DiscoveryConfig(max_rounds=6, max_probes_per_round=60)
    result = DiscoveryEngine(world, "etisalat", config=config).run(
        baseline[:5]
    )
    store.commit(
        discovery_epoch(
            result,
            world=world,
            window=(window_start, world.now.minutes),
            population=220,
            coverage=CoverageReport.evaluate(result, baseline),
        )
    )


def build_monitor(root: Path) -> Path:
    """A short real monitor run so /monitor/* has state to serve."""
    from repro.analysis.paper_data import PAPER_TABLE3
    from repro.core.pipeline import config_for_row
    from repro.monitor import MonitorService, MonitorTarget
    from repro.products.registry import SMARTFILTER
    from repro.world.scenario import build_scenario

    row = next(r for r in PAPER_TABLE3 if r.product == SMARTFILTER)
    monitor_dir = root / "monitor"
    service = MonitorService(
        monitor_dir,
        root / "monitor-store",
        scenario_factory=build_scenario,
        targets=[MonitorTarget(config_for_row(row))],
    )
    service.run(rounds=2)
    return monitor_dir


def fetch(
    host: str, port: int, target: str, etag: Optional[str] = None
) -> Tuple[int, bytes, Optional[str]]:
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        headers = {} if etag is None else {"If-None-Match": etag}
        connection.request("GET", target, headers=headers)
        response = connection.getresponse()
        return response.status, response.read(), response.getheader("ETag")
    finally:
        connection.close()


def smoke_targets(
    store, monitor_dir: Optional[Path] = None
) -> Tuple[List[str], List[str], List[str]]:
    """The targets expected to answer 200, 400 and 404, in that order.

    They depend on what the store holds now (its newest epoch, whether
    a discovery epoch exists) and on whether a monitor is served.
    """
    epoch_ids = store.epoch_ids()
    newest = epoch_ids[-1]
    manifest = store.manifest(newest)
    country = manifest.keys["country"][0]
    product = manifest.keys["product"][0]

    ok_targets = [
        "/healthz",
        "/metrics",
        "/epochs",
        "/epochs?page=1&per_page=1",
        f"/epochs/{newest}",
        f"/epochs/{newest[:10]}",  # unique prefix resolution
        f"/epochs/{newest}/records/installations",
        f"/epochs/{newest}/records/confirmations?country={country}",
        f"/epochs/{newest}/records/confirmations?min_confidence=0.5",
        f"/epochs/{newest}/tables/table1",
        f"/epochs/{newest}/tables/table3",
        f"/epochs/{newest}/countries/{country}",
        f"/epochs/{newest}/products/{product.replace(' ', '%20')}",
        "/diff",
        f"/diff?old={epoch_ids[0][:8]}&new={epoch_ids[-1][:8]}",
    ]
    bad_request_targets = [
        f"/epochs/{newest}/records/confirmations?min_confidence=high",
        f"/epochs/{newest}/records/confirmations?min_confidence=1.5",
    ]
    missing_targets = [
        "/definitely/not/here",
        "/epochs/ffffffffffff",
        f"/epochs/{newest}/records/surprises",
        f"/epochs/{newest}/tables/table9",
        f"/epochs/{newest}/countries/zz",
    ]
    if monitor_dir is not None:
        ok_targets += [
            "/monitor/status",
            "/monitor/targets",
            "/monitor/alerts",
        ]
        missing_targets += ["/monitor", "/monitor/nope"]
    has_discovery = any(
        "discovery_rounds" in m.segments for m in store.manifests()
    )
    missing_targets += ["/discover", "/discover/nope"]
    if has_discovery:
        ok_targets += [
            "/discover/rounds",
            "/discover/candidates",
            "/discover/candidates?min_confidence=0.5&per_page=10",
        ]
        bad_request_targets += [
            "/discover/candidates?min_confidence=high",
        ]
    else:
        # A store without discovery epochs must 404 cleanly, not crash.
        missing_targets += ["/discover/rounds", "/discover/candidates"]
    return ok_targets, bad_request_targets, missing_targets


def run_checks(store, monitor_dir: Optional[Path] = None) -> List[str]:
    from repro.serve import ResultsServer

    failures: List[str] = []
    ok_targets, bad_request_targets, missing_targets = smoke_targets(
        store, monitor_dir
    )
    with ResultsServer(store, monitor_dir=monitor_dir) as server:
        for target in ok_targets:
            status, body, etag = fetch(server.host, server.port, target)
            if status != 200:
                failures.append(f"{target}: expected 200, got {status}")
                continue
            json.loads(body)  # every response must be valid JSON
            print(f"  200 {target}")
            if etag is None:
                # Liveness and timings are deliberately uncacheable.
                if target not in ("/healthz", "/metrics"):
                    failures.append(f"{target}: missing ETag header")
                continue
            status, _body, _etag = fetch(
                server.host, server.port, target, etag=etag
            )
            if status != 304:
                failures.append(
                    f"{target}: expected 304 on revalidation, got {status}"
                )
            else:
                print(f"  304 {target} (If-None-Match)")
        for target in bad_request_targets:
            status, _body, _etag = fetch(server.host, server.port, target)
            if status != 400:
                failures.append(f"{target}: expected 400, got {status}")
            else:
                print(f"  400 {target}")
        for target in missing_targets:
            status, _body, _etag = fetch(server.host, server.port, target)
            if status != 404:
                failures.append(f"{target}: expected 404, got {status}")
            else:
                print(f"  404 {target}")
    return failures


def check_disabled_monitor_surface(store) -> List[str]:
    """Without ``--monitor`` the surface must 404 cleanly, not crash."""
    from repro.serve import ResultsServer

    failures: List[str] = []
    with ResultsServer(store) as server:
        for target in ("/monitor/status", "/monitor/targets"):
            status, _body, _etag = fetch(server.host, server.port, target)
            if status != 404:
                failures.append(
                    f"{target} (monitor disabled): expected 404, got {status}"
                )
            else:
                print(f"  404 {target} (monitor disabled)")
    return failures


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--store",
        help="serve an existing store instead of building a temporary one",
    )
    args = parser.parse_args(argv)

    from repro.store import ResultsStore

    temp_root: Optional[Path] = None
    monitor_root: Optional[Path] = None
    try:
        if args.store:
            store = ResultsStore(Path(args.store))
        else:
            temp_root = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
            print("building a two-epoch store (two campaign runs)...")
            store = build_store(temp_root)
        if len(store.epoch_ids()) < 2:
            print("smoke needs a store with at least two epochs", file=sys.stderr)
            return 1
        if temp_root is not None:
            # Exercise both discovery-surface states: 404 while the
            # store holds no discovery epoch, 200/304 once one lands.
            failures = run_checks(store)
            if failures:
                for failure in failures:
                    print(f"FAIL {failure}", file=sys.stderr)
                return 1
            print("building a small-world discovery epoch...")
            commit_discovery(store)
        monitor_root = Path(tempfile.mkdtemp(prefix="serve-smoke-monitor-"))
        print("building a two-round monitor journal...")
        monitor_dir = build_monitor(monitor_root)
        failures = run_checks(store, monitor_dir)
        failures += check_disabled_monitor_surface(store)
    finally:
        if temp_root is not None:
            shutil.rmtree(temp_root, ignore_errors=True)
        if monitor_root is not None:
            shutil.rmtree(monitor_root, ignore_errors=True)
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print("serve smoke: every endpoint honored the 200/304/400/404 contract")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
