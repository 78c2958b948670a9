"""Streaming batched scan over a sharded synthetic host population.

The paper's identification step (§3) sweeps Shodan's banner corpus for
product keywords, then validates candidates to reject keyword
collisions (§3.2). :mod:`repro.scan.banner` reproduces that against the
~2k-host simulated world; this module is the same pipeline rebuilt for
*internet-scale* populations — millions of lazily generated hosts from
:class:`repro.world.population.ShardedPopulation` — without ever
materializing the population or the result set in memory:

- the host space is cut into contiguous **batches** (shard-aligned, so
  any shard subset scans independently);
- each batch is a picklable :class:`BatchJob` executed by the
  module-level :func:`scan_batch` — generate hosts, apply the world's
  :class:`~repro.world.faults.FaultPlan` (connection faults drop hosts,
  corruption degrades banners), keyword-match against the product
  registry's Shodan signatures, validate console candidates;
- batches flow through :meth:`repro.exec.executor.Executor.stream`
  under a bounded in-flight window (backpressure), and matched rows are
  appended straight to a :class:`repro.store.segments.EpochStream`
  segment in **submission order**.

Because batch results merge in submission order and every host is a
pure function of ``(seed, index)``, the committed epoch id is invariant
to worker count, backend (thread/process) and shard count — the
determinism contract the integration matrix pins down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.exec.checkpoint import fingerprint as identity_fingerprint
from repro.exec.executor import Executor, StreamStats, TaskFailure
from repro.world.faults import FaultPlan, corrupt_text

if TYPE_CHECKING:  # the store package imports analysis/core; stay acyclic
    from repro.store.store import ResultsStore
from repro.world.population import (
    CONSOLE_MARKER,
    ShardedPopulation,
    ShardedPopulationConfig,
)

#: Vantage label scan-side faults are addressed by (the paper scans
#: from a measurement network, not an in-country ISP vantage).
SCAN_VANTAGE = "scanner"

#: Default hosts per batch: large enough that per-batch overhead
#: (pickling, one simulated round-trip) amortizes, small enough that a
#: bounded window of batches keeps memory flat.
DEFAULT_BATCH_SIZE = 1000


def _signature_table(
    products: Optional[Tuple[str, ...]],
) -> Tuple[Tuple[str, str], ...]:
    """Flattened ``(lowered keyword, product)`` pairs in registry order.

    First match wins, so ordering must be deterministic — registry
    order is, and it is identical in every worker process.
    """
    from repro.products.registry import default_registry

    pairs: List[Tuple[str, str]] = []
    for spec in default_registry().resolve(
        None if products is None else list(products)
    ):
        for keyword in spec.shodan_keywords:
            pairs.append((keyword.strip('"').lower(), spec.name))
    return tuple(pairs)


def _ip_string(value: int) -> str:
    return (
        f"{(value >> 24) & 255}.{(value >> 16) & 255}."
        f"{(value >> 8) & 255}.{value & 255}"
    )


@dataclass(frozen=True)
class BatchJob:
    """One contiguous index range of the population (picklable)."""

    seed: int
    config: ShardedPopulationConfig
    start: int
    stop: int
    latency: float = 0.0
    fault_plan: Optional[FaultPlan] = None

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class BatchResult:
    """What one batch scan observed (picklable, submission-mergeable)."""

    start: int
    stop: int
    scanned: int
    missed: int
    decoys: int
    rows: Tuple[Dict[str, Any], ...]


def scan_batch(job: BatchJob) -> BatchResult:
    """Scan one batch of hosts; module-level so process pools can run it.

    Mirrors §3's pipeline per host: banner grab (with injected
    connection faults and corruption), keyword match against the
    registry's Shodan signatures, then validation — a matched banner
    must carry the product console marker or it is dismissed as a
    keyword collision (§3.2's false positives).
    """
    population = ShardedPopulation(job.seed, job.config)
    signatures = _signature_table(job.config.products)
    plan = job.fault_plan
    rows: List[Dict[str, Any]] = []
    missed = 0
    decoys = 0
    for index in range(job.start, job.stop):
        _, ip, port, country, asn, banner, _product, _kw = (
            population.raw_at(index)
        )
        ip_str = _ip_string(ip)
        if plan is not None:
            if plan.connection_fault(SCAN_VANTAGE, ip_str) is not None:
                missed += 1
                continue
            corruption = plan.banner_corruption(ip_str, port)
            if corruption is not None:
                banner = corrupt_text(corruption, banner)
        lowered = banner.lower()
        matched: Optional[Tuple[str, str]] = None
        for keyword, product in signatures:
            if keyword in lowered:
                matched = (keyword, product)
                break
        if matched is None:
            continue
        if CONSOLE_MARKER not in lowered:
            decoys += 1
            continue
        keyword, product = matched
        rows.append(
            {
                "ip": ip_str,
                "port": port,
                "product": product,
                "country": country,
                "asn": asn,
                "as_name": f"AS{asn}",
                "org_name": None,
                "org_kind": None,
                "evidence": [f"keyword:{keyword}"],
            }
        )
    if job.latency > 0.0:
        # One simulated network round-trip per batch — the wall-clock
        # cost threads/processes overlap, exactly like real banner
        # grabs against distinct hosts.
        time.sleep(job.latency)
    return BatchResult(
        start=job.start,
        stop=job.stop,
        scanned=job.stop - job.start,
        missed=missed,
        decoys=decoys,
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class ScanSummary:
    """Outcome of one streamed identify pass."""

    epoch_id: str
    created: bool
    hosts: int
    scanned: int
    missed: int
    decoys: int
    hits: int
    batches: int
    peak_inflight: int
    elapsed_seconds: float

    @property
    def hosts_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.hosts / self.elapsed_seconds

    def to_document(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch_id,
            "created": self.created,
            "hosts": self.hosts,
            "scanned": self.scanned,
            "missed": self.missed,
            "decoys": self.decoys,
            "hits": self.hits,
            "batches": self.batches,
            "peak_inflight": self.peak_inflight,
            "elapsed_seconds": self.elapsed_seconds,
            "hosts_per_second": self.hosts_per_second,
        }


class StreamingScan:
    """A full identify pass: population → batches → executor → store.

    The scan's identity (hence the committed epoch id) is a function of
    the population identity and the fault plan only — batch size,
    window, worker count and backend are execution knobs and excluded,
    which is what makes the §3 sweep reproducible at any parallelism.
    """

    def __init__(
        self,
        seed: int,
        config: Optional[ShardedPopulationConfig] = None,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        latency: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.population = ShardedPopulation(seed, config)
        self.batch_size = batch_size
        self.latency = latency
        self.fault_plan = fault_plan

    def identity(self) -> Dict[str, Any]:
        plan = self.fault_plan
        return {
            "kind": "streaming-scan",
            **self.population.identity(),
            "fault_plan": None if plan is None else plan.describe(),
        }

    def jobs(
        self, shards: Optional[Sequence[int]] = None
    ) -> Iterator[BatchJob]:
        """Batch jobs in index order, optionally restricted to shards.

        Batches never straddle a shard boundary, so scanning shard
        subsets on different machines partitions the exact batch set a
        full scan would run.
        """
        population = self.population
        shard_list = (
            range(population.shard_count) if shards is None else shards
        )
        for shard in shard_list:
            start, stop = population.shard_bounds(shard)
            for batch_start in range(start, stop, self.batch_size):
                yield BatchJob(
                    seed=population.seed,
                    config=population.config,
                    start=batch_start,
                    stop=min(batch_start + self.batch_size, stop),
                    latency=self.latency,
                    fault_plan=self.fault_plan,
                )

    def scan_shard(
        self,
        shard: int,
        *,
        after_batch: Optional[Callable[[BatchResult], None]] = None,
    ) -> BatchResult:
        """Scan one shard's batches inline, in index order.

        The unit a coordination worker executes under a lease: one
        batch-shaped result covering the whole shard. Because every host
        is a pure function of ``(seed, index)``, any worker that scans
        shard *k* under the same scan identity produces byte-identical
        rows, which is what makes duplicate completions discardable.
        ``after_batch`` is a progress hook invoked after every batch —
        workers use it to heartbeat their lease between batches (and
        the chaos harness to kill a worker mid-shard); a hook that
        raises abandons the shard with nothing written.
        """
        rows: List[Dict[str, Any]] = []
        scanned = 0
        missed = 0
        decoys = 0
        start, stop = self.population.shard_bounds(shard)
        for job in self.jobs([shard]):
            result = scan_batch(job)
            scanned += result.scanned
            missed += result.missed
            decoys += result.decoys
            rows.extend(result.rows)
            if after_batch is not None:
                after_batch(result)
        return BatchResult(
            start=start,
            stop=stop,
            scanned=scanned,
            missed=missed,
            decoys=decoys,
            rows=tuple(rows),
        )

    def commit(
        self,
        store: "ResultsStore",
        results: Iterable[Any],
        *,
        stats: Optional[StreamStats] = None,
    ) -> ScanSummary:
        """Write ``results`` as this scan's epoch; returns the summary.

        Each result is batch-shaped (``scanned``, ``missed``, ``decoys``,
        ``rows``): a :class:`BatchResult`, or a verified shard segment
        when a distributed scan reconciles. Rows land in the
        ``installations`` segment in iteration order, so the same rows
        commit the same epoch id however they were produced. An error
        raised while iterating aborts the stream and re-raises — a
        partial scan must never publish as if it were complete.
        """
        identity = self.identity()
        epoch_stream = store.begin_stream(
            identity=identity,
            fingerprint=identity_fingerprint(identity),
            seed=self.population.seed,
            window_start=0,
        )
        scanned = 0
        missed = 0
        decoys = 0
        hits = 0
        batches = 0
        started = time.perf_counter()
        try:
            # Touch the segment up front so a zero-hit scan still
            # commits an (empty) installations segment.
            epoch_stream.writer("installations")
            for result in results:
                batches += 1
                scanned += result.scanned
                missed += result.missed
                decoys += result.decoys
                hits += len(result.rows)
                for row in result.rows:
                    epoch_stream.write("installations", row)
        except BaseException:
            epoch_stream.abort()
            raise
        elapsed = time.perf_counter() - started
        committed = epoch_stream.finalize(window_end=0)
        return ScanSummary(
            epoch_id=committed.epoch_id,
            created=committed.created,
            hosts=scanned,
            scanned=scanned,
            missed=missed,
            decoys=decoys,
            hits=hits,
            batches=batches,
            peak_inflight=0 if stats is None else stats.peak_inflight,
            elapsed_seconds=elapsed,
        )

    def run(
        self,
        store: "ResultsStore",
        executor: Executor,
        *,
        window: Optional[int] = None,
        stats: Optional[StreamStats] = None,
    ) -> ScanSummary:
        """Stream the scan into ``store``; returns the committed epoch.

        Batch results are committed in submission order. A failed batch
        aborts the stream and re-raises.
        """
        if stats is None:
            stats = StreamStats()

        def batches() -> Iterator[BatchResult]:
            for _index, outcome in executor.stream(
                scan_batch,
                self.jobs(),
                label="scan",
                window=window,
                stats=stats,
            ):
                if isinstance(outcome, TaskFailure):
                    raise outcome
                yield outcome

        return self.commit(store, batches(), stats=stats)
