"""The five workloads, driven only through the program's public API.

Each workload repeats a fixed *unit* of work on inputs made from the
seed: ``setup`` builds a unit's starting state, ``run`` does the timed
work and returns what it did plus an output digest. Every unit of one
run must produce the same digest, and at the pinned seed it must equal
:data:`PINNED`.

=========  ===================================  =========  ==========
workload   unit                                 item       stresses
=========  ===================================  =========  ==========
study      one default campaign + epoch commit  world host scan.shodan, core.identify
scan       one 250k-host streaming pass         host       world.population, scan.stream, store writes
discover   crawl 4 vantages from 5 seeds each   probe      measure, discover.index
monitor    200 rounds over the 9 Table 3 pairs  round      journal, snapshots, store commits
serve      500 requests per second of run time  request    store read path, query, serve
=========  ===================================  =========  ==========

No workload sleeps: every simulated link latency is zero, so the time
measured is the program's own work.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote

from bench import hostspeed, loadgen, stats

HERE = Path(__file__).resolve().parent

#: The seed whose output digests are pinned.
PINNED_SEED = 2013

#: Output digests at :data:`PINNED_SEED`: study and scan epoch ids, the
#: SHA-256 over each vantage's discovered list, the alert ledger plus
#: the last round's epoch id, and the served bodies.
PINNED: Dict[str, str] = {
    "study": "2e4b9558042c1fc1709a2924c7cefd830692b20cfa78ea0043b8951b5d6f1def",
    "scan": "e5a5331381284a047bc490ea228dd0d4df2d941151cbbc63e275f6145df61c4a",
    "discover": "fe35a51d3f2788b1cfb82839b3b68d20c97a513c73d149f48fd2b59f6b3b0b24",
    "monitor": "ead25b76f8664714df8e5201144ef8926c1aff54c1e5d94792297e9fbe032e46",
    "serve": "3457ba1047f359f5d8079c1a7f31411f0ccb952d38e7e793c88b0bd4a617f008",
}

ISPS = ("etisalat", "du", "yemennet", "ooredoo")
SCAN_HOSTS = 250_000
DISCOVER_SEEDS = 5
MONITOR_ROUNDS = 200
SERVE_SCAN_HOSTS = 100_000
SERVE_CONNECTIONS = 2
#: Requests in the warm-up block, and per reported unit of serve work.
SERVE_BLOCK = 1000
#: Requests measured per second of run time.
SERVE_PASS_RATE = 500
#: Open-loop (rate req/s, seconds): about a third and two thirds of the
#: closed-loop capacity on a 2-CPU Xeon, where each LRU miss re-reads a
#: whole segment.
SERVE_OPEN_LOOPS = ((200, 5.0), (400, 4.0))
#: Request draws per run; the sequence wraps if a run outlasts it.
SERVE_DRAWS = 50_000


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


@dataclass
class UnitResult:
    """What one unit did: items (the throughput count), operations
    attempted and failed, the output digest, problems found checking the
    output, and measurements for the per-layer report."""

    items: int
    attempted: int
    failed: int
    digest: str
    problems: List[str] = field(default_factory=list)
    measured: Dict[str, float] = field(default_factory=dict)


class Workload:
    """A unit-of-work workload; see the module table."""

    name = ""
    #: When the seed changes how many items a unit holds, ``cpu_s`` is
    #: reported per this many items, so that seeds compare.
    cpu_items: Optional[int] = None

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work_dir))

    def setup(self) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> UnitResult:
        raise NotImplementedError

    def verify(self, state: Any, result: UnitResult) -> List[str]:
        """Problems with the unit's stored output; runs after timing."""
        return []

    def close(self, state: Any) -> None:
        """Release what ``setup`` made (directories)."""


# -------------------------------------------------------------------- study
class Study(Workload):
    """The paper's whole method: identify, confirm, characterize, then
    commit the epoch. Zero link latency, one worker."""

    name = "study"

    def setup(self) -> Any:
        from repro import FullStudy, ResultsStore, build_scenario

        directory = self.fresh_dir()
        scenario = build_scenario(self.seed)
        study = FullStudy(scenario, workers=1)
        return scenario, study, ResultsStore(directory), directory

    def run(self, state: Any) -> UnitResult:
        scenario, study, store, _directory = state
        hosts = len(scenario.world.hosts)
        study.run()
        commit = study.commit_epoch(store)
        counters = study.metrics.as_dict()["counters"]
        measured = {}
        for cache in ("geo", "dns", "asn", "banner"):
            hits = counters.get(f"cache.{cache}.hits", 0)
            misses = counters.get(f"cache.{cache}.misses", 0)
            measured[f"exec.cache.{cache}.hit_frac"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
        return UnitResult(
            items=hosts,
            attempted=len(study.plan()),
            failed=0,
            digest=commit.epoch_id,
            measured=measured,
        )

    def verify(self, state: Any, result: UnitResult) -> List[str]:
        return state[2].verify(result.digest)

    def close(self, state: Any) -> None:
        shutil.rmtree(state[-1], ignore_errors=True)


# --------------------------------------------------------------------- scan
class Scan(Workload):
    """Per-host compute of the streaming scan plus the store write path;
    thread backend, one worker, zero latency."""

    name = "scan"

    def setup(self) -> Any:
        from repro.scan.stream import StreamingScan
        from repro.store import ResultsStore
        from repro.world.population import ShardedPopulationConfig

        directory = self.fresh_dir()
        scan = StreamingScan(
            self.seed, ShardedPopulationConfig(host_count=SCAN_HOSTS)
        )
        return scan, ResultsStore(directory), directory

    def run(self, state: Any) -> UnitResult:
        from repro.exec.executor import Executor

        scan, store, directory = state
        summary = scan.run(store, Executor(workers=1))
        problems = []
        if summary.scanned != SCAN_HOSTS:
            problems.append(f"scanned {summary.scanned} of {SCAN_HOSTS} hosts")
        return UnitResult(
            items=summary.scanned,
            attempted=SCAN_HOSTS,
            failed=summary.missed + SCAN_HOSTS - summary.scanned,
            digest=summary.epoch_id,
            problems=problems,
            measured={
                "scan.stream.hit_frac": summary.hits / max(summary.scanned, 1),
                "scan.stream.decoy_frac": summary.decoys / max(summary.scanned, 1),
                "store.bytes_written": tree_bytes(directory),
            },
        )

    def verify(self, state: Any, result: UnitResult) -> List[str]:
        return state[1].verify(result.digest)

    def close(self, state: Any) -> None:
        shutil.rmtree(state[-1], ignore_errors=True)


# ----------------------------------------------------------------- discover
class Discover(Workload):
    """The FilteredWeb-style crawl from the static-list seeds of four
    censored vantages, as ``repro discover`` runs it by default: one
    worker, no executor. The seed moves the probe count by a few per
    cent (4762-5112 over seeds 1-5), so ``cpu_s`` is per 5000 probes."""

    name = "discover"
    cpu_items = 5000

    def setup(self) -> Any:
        from repro import build_scenario
        from repro.discover import SearchIndex, static_baseline

        world = build_scenario(self.seed).world
        index = SearchIndex.build(world)
        baselines = {isp: static_baseline(world, isp) for isp in ISPS}
        return world, index, baselines

    def run(self, state: Any) -> UnitResult:
        from repro.discover import DiscoveryEngine

        world, index, baselines = state
        results = [
            DiscoveryEngine(world, isp, index=index).run(
                baselines[isp][:DISCOVER_SEEDS]
            )
            for isp in ISPS
        ]
        probes = sum(len(result.candidates) for result in results)
        problems = []
        for result in results:
            if not result.converged:
                problems.append(f"{result.isp_name}: crawl did not converge")
            admissible = {
                c.url for c in result.candidates if c.blocked and not c.insufficient
            }
            if not set(result.blocked_urls) <= admissible:
                problems.append(f"{result.isp_name}: admitted an unconfirmed URL")
        digest = sha256(
            "".join(
                f"{result.isp_name} "
                f"{sha256(result.discovered_list_text().encode('utf-8'))}\n"
                for result in results
            ).encode("utf-8")
        )
        return UnitResult(
            items=probes,
            attempted=probes,
            failed=sum(result.insufficient_count for result in results),
            digest=digest,
            problems=problems,
            measured={
                "discover.rounds": sum(len(result.rounds) for result in results),
                "discover.admitted_frac": sum(
                    len(result.blocked_urls) for result in results
                )
                / max(probes, 1),
            },
        )


# ------------------------------------------------------------------ monitor
def monitor_targets() -> list:
    """One target per distinct (product, ISP) pair of Table 3."""
    from repro.analysis.paper_data import PAPER_TABLE3
    from repro.core.pipeline import config_for_row
    from repro.monitor import MonitorTarget

    seen = set()
    targets = []
    for row in PAPER_TABLE3:
        if (row.product, row.isp_key) not in seen:
            seen.add((row.product, row.isp_key))
            targets.append(MonitorTarget(config_for_row(row)))
    return targets


class Monitor(Workload):
    """The durable monitoring loop: a journal record per round event,
    a snapshot and a store commit after every round."""

    name = "monitor"

    def setup(self) -> Any:
        from repro import build_scenario
        from repro.monitor import MonitorConfig, MonitorService

        directory = self.fresh_dir()
        marks: List[Tuple[str, float]] = []
        service = MonitorService(
            directory / "monitor",
            directory / "store",
            scenario_factory=functools.partial(build_scenario, self.seed),
            targets=monitor_targets(),
            config=MonitorConfig(checkpoint_every=1),
            after_write=lambda record: marks.append(
                (record.kind, time.perf_counter())
            ),
        )
        service.scenario  # build the world now, outside the timed unit
        return service, marks, directory

    def run(self, state: Any) -> UnitResult:
        from repro.monitor.alerts import ALERTS_FILENAME

        service, marks, directory = state
        summary = service.run(MONITOR_ROUNDS)
        starts = [at for kind, at in marks if kind in ("round-start", "final")]
        rounds = [later - earlier for earlier, later in zip(starts, starts[1:])]
        ledger = (directory / "monitor" / ALERTS_FILENAME).read_bytes()
        last_epoch = service.timeline[-1].get("epoch") or ""
        problems = []
        if len(rounds) != MONITOR_ROUNDS:
            problems.append(f"{len(rounds)} round marks for {MONITOR_ROUNDS} rounds")
        return UnitResult(
            items=summary.rounds_this_run,
            attempted=MONITOR_ROUNDS,
            failed=summary.gaps + MONITOR_ROUNDS - summary.rounds_this_run,
            digest=sha256(ledger + last_epoch.encode("ascii")),
            problems=problems,
            measured={
                "monitor.round_p50_ms": stats.percentile(rounds, 50) * 1e3,
                "monitor.round_p95_ms": stats.tail(rounds, 95) * 1e3,
                "monitor.round_first20_ms": statistics.median(rounds[:20]) * 1e3,
                "monitor.round_last20_ms": statistics.median(rounds[-20:]) * 1e3,
                "monitor.alerts": summary.alerts_recorded,
                "monitor.gaps": summary.gaps,
                "store.bytes_written": tree_bytes(directory),
            },
        )

    def verify(self, state: Any, result: UnitResult) -> List[str]:
        store = state[0].store
        epochs = store.epoch_ids()
        problems = [p for epoch in epochs for p in store.verify(epoch)]
        if len(epochs) != result.items:
            problems.append(f"{len(epochs)} epochs stored for {result.items} rounds")
        return problems

    def close(self, state: Any) -> None:
        shutil.rmtree(state[-1], ignore_errors=True)


# -------------------------------------------------------------------- serve
def serve_targets(store: Any) -> List[str]:
    """Every distinct GET target the serve workload draws from, most
    popular first.

    The order is assumed, not taken from a request log: a reader starts
    at the listings and the default diff, looks at newer epochs before
    older ones, and at summaries before detail. So come, in turn, the
    listings and default diff; each epoch's manifest and tables, newest
    epoch first; the listing pages; each epoch's drill-downs; the
    explicit diffs; and last the record pages, page 1 of every listing
    before page 2.
    """
    from repro.query import QueryEngine

    engine = QueryEngine(store)
    newest_first = store.epoch_ids()[::-1]
    manifests = {epoch: store.manifest(epoch) for epoch in newest_first}
    targets = ["/epochs", "/diff"]
    for epoch in newest_first:
        targets.append(f"/epochs/{epoch}")
        targets += [
            f"/epochs/{epoch}/tables/{name}"
            for name in engine.tables_available(epoch=epoch)
        ]
    targets += [
        f"/epochs?page={page}&per_page=1" for page in range(1, len(newest_first) + 1)
    ]
    for epoch in newest_first:
        keys = manifests[epoch].keys
        targets += [
            f"/epochs/{epoch}/countries/{quote(code)}"
            for code in sorted(keys.get("country", ()))
        ]
        targets += [
            f"/epochs/{epoch}/products/{quote(product)}"
            for product in sorted(keys.get("product", ()))
        ]
    targets += [
        f"/diff?old={old}&new={new}"
        for new in newest_first
        for old in newest_first
        if old != new
    ]
    listings = [
        (epoch, kind, per_page, max(1, math.ceil(segment.count / per_page)))
        for epoch in newest_first
        for kind, segment in sorted(manifests[epoch].segments.items())
        for per_page in (10, 25, 50)
    ]
    for page in range(1, max(pages for *_, pages in listings) + 1):
        targets += [
            f"/epochs/{epoch}/records/{kind}?page={page}&per_page={per_page}"
            for epoch, kind, per_page, pages in listings
            if page <= pages
        ]
    return targets


class ServerProcess:
    """``bench/server.py`` in a child process, started and answering;
    ``ready_cpu_s`` is the scaled CPU time it spent before listening."""

    def __init__(self, store_dir: Path, spans: Optional[Path] = None) -> None:
        command = [sys.executable, str(HERE / "server.py"), str(store_dir)]
        if spans is not None:
            command += ["--spans", str(spans)]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = self.process.stdout.readline().split()
            if not line:
                raise RuntimeError("server process exited before listening")
            self.port = int(line[0])
            self.ready_cpu_s = float(line[1])
            connection = loadgen.HttpConnection("127.0.0.1", self.port)
            try:
                status, _ = connection.get("/healthz")
            finally:
                connection.close()
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise

    def _proc(self, name: str) -> str:
        return Path(f"/proc/{self.process.pid}/{name}").read_text()

    def cpu(self) -> hostspeed.Reading:
        """The server's CPU time so far (see :mod:`bench.hostspeed`)."""
        self.process.send_signal(signal.SIGUSR1)
        line = self.process.stdout.readline().split()
        if not line:
            raise RuntimeError("server process exited")
        return hostspeed.Reading(*map(float, line))

    def peak_rss_mb(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def metrics(self) -> Dict[str, Any]:
        connection = loadgen.HttpConnection("127.0.0.1", self.port)
        try:
            _, body = connection.get("/metrics")
        finally:
            connection.close()
        return json.loads(body)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


@dataclass
class ServeFixture:
    store_dir: Path
    targets: List[str]
    expected: Dict[str, bytes]
    sequence: List[int]
    digest: str
    problems: List[str]


class Serve(Workload):
    """The store read path over real sockets: ``ResultsServer`` in a
    child process, two keep-alive connections from this process, targets
    drawn Zipf(1.1) by their rank in :func:`serve_targets` from a set
    larger than the server's 128-entry LRU.

    The store holds a SmartFilter-only campaign (installation,
    confirmation and characterization rows and their tables) and two
    100k-host scans a seed apart (large installation segments, and a
    churn diff between them).
    """

    name = "serve"

    def fixture(self) -> ServeFixture:
        from repro import FullStudy, ResultsStore, build_scenario
        from repro.exec.executor import Executor
        from repro.products.registry import SMARTFILTER
        from repro.scan.stream import StreamingScan
        from repro.serve.api import StoreApi
        from repro.world.population import ShardedPopulationConfig

        directory = self.fresh_dir()
        store = ResultsStore(directory)
        study = FullStudy(build_scenario(self.seed), products=[SMARTFILTER])
        study.run()
        study.commit_epoch(store)
        for seed in (self.seed, self.seed + 1):
            StreamingScan(
                seed, ShardedPopulationConfig(host_count=SERVE_SCAN_HOSTS)
            ).run(store, Executor(workers=1))

        problems = [p for epoch in store.epoch_ids() for p in store.verify(epoch)]
        api = StoreApi(store)
        targets = serve_targets(store)
        expected: Dict[str, bytes] = {}
        for target in targets:
            response = api.handle(target)
            if response.status != 200:
                problems.append(f"in-process render of {target}: {response.status}")
            expected[target] = response.body
        digest = sha256(
            "".join(
                f"{target} {sha256(expected[target])}\n" for target in sorted(targets)
            ).encode("utf-8")
        )
        sequence = loadgen.zipf_draws(len(targets), SERVE_DRAWS, self.seed)
        return ServeFixture(directory, targets, expected, sequence, digest, problems)

    def load(
        self, fixture: ServeFixture, server: ServerProcess
    ) -> Tuple[loadgen.Load, Any]:
        send, close = loadgen.connect("127.0.0.1", server.port, SERVE_CONNECTIONS)
        load = loadgen.Load(
            send,
            fixture.targets,
            fixture.sequence,
            fixture.expected,
            connections=SERVE_CONNECTIONS,
        )
        return load, close
