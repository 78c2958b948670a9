"""Names, units and directions of every metric the benchmark reports.

End-to-end metrics come from untraced runs and are reported for every
workload; each workload defines its unit of work and its item (see
``bench/README.md``). They count CPU time scaled to a reference speed
(``bench/hostspeed.py``), not wall time: on a shared virtual machine
wall time also counts the time other tenants hold the host's cores,
which put the quartile spread of wall-clock results at 16-39% of the
median over ten runs, and plain CPU time swings with how busy they are.
Per-layer metrics come from one traced run, and include the wall-clock
numbers (``wall.*``); a layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

#: (name, unit, better)
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # wall clock of one untraced unit, as a user would see it
    ("wall.unit_s", "s", "lower"),
    ("wall.items_per_s", "1/s", "higher"),
    # that unit's measured over scaled user CPU time, and its kernel CPU
    # time, which cpu_s leaves out (bench/hostspeed.py)
    ("host.slowdown", "ratio", "lower"),
    ("host.system_s", "s", "lower"),
    # world
    ("world.build_scenario_s", "s", "lower"),
    ("world.fetch.calls", "count", "lower"),
    ("world.fetch.self_s", "s", "lower"),
    ("world.population.raw_at.calls", "count", "lower"),
    ("world.population.raw_at.self_s", "s", "lower"),
    # scan
    ("scan.scan_world_s", "s", "lower"),
    ("scan.shodan.search.calls", "count", "lower"),
    ("scan.shodan.search.self_s", "s", "lower"),
    ("scan.shodan.records_per_query", "count", "lower"),
    ("scan.whatweb.identify.calls", "count", "lower"),
    ("scan.whatweb.identify.self_s", "s", "lower"),
    ("scan.stream.scan_batch.calls", "count", "lower"),
    ("scan.stream.scan_batch.self_s", "s", "lower"),
    ("scan.stream.hit_frac", "ratio", "higher"),
    ("scan.stream.decoy_frac", "ratio", "lower"),
    # core
    ("core.identify_s", "s", "lower"),
    ("core.identify.locate_s", "s", "lower"),
    ("core.identify.validate_s", "s", "lower"),
    ("core.confirm_s", "s", "lower"),
    ("core.characterize_s", "s", "lower"),
    ("core.confirm.study_run.self_s", "s", "lower"),
    # measure
    ("measure.test_url.calls", "count", "lower"),
    ("measure.run_list_s", "s", "lower"),
    ("measure.verdict.compare.calls", "count", "lower"),
    ("measure.verdict.compare.self_s", "s", "lower"),
    ("measure.verdict.blocked_frac", "ratio", "higher"),
    ("measure.verdict.insufficient_frac", "ratio", "lower"),
    # discover
    ("discover.index.build_s", "s", "lower"),
    ("discover.index.query.calls", "count", "lower"),
    ("discover.index.query.self_s", "s", "lower"),
    ("discover.rounds", "count", "lower"),
    ("discover.admitted_frac", "ratio", "higher"),
    # exec
    ("exec.cache.geo.hit_frac", "ratio", "higher"),
    ("exec.cache.dns.hit_frac", "ratio", "higher"),
    ("exec.cache.asn.hit_frac", "ratio", "higher"),
    ("exec.cache.banner.hit_frac", "ratio", "higher"),
    ("exec.journal.append.calls", "count", "lower"),
    ("exec.journal.append.self_s", "s", "lower"),
    ("exec.checkpoint.write_snapshot.calls", "count", "lower"),
    ("exec.checkpoint.write_snapshot.self_s", "s", "lower"),
    ("exec.checkpoint.snapshot_bytes", "bytes", "lower"),
    ("fsync.calls", "count", "lower"),
    ("fsync.s", "s", "lower"),
    # store
    ("store.commit.calls", "count", "lower"),
    ("store.commit.self_s", "s", "lower"),
    ("store.stream.write.calls", "count", "lower"),
    ("store.stream.write.self_s", "s", "lower"),
    ("store.stream.finalize_s", "s", "lower"),
    ("store.records.calls", "count", "lower"),
    ("store.records.self_s", "s", "lower"),
    ("store.bytes_written", "bytes", "lower"),
    # query
    ("query.table.calls", "count", "lower"),
    ("query.table.self_s", "s", "lower"),
    ("query.diff.calls", "count", "lower"),
    ("query.diff.self_s", "s", "lower"),
    ("query.select.calls", "count", "lower"),
    ("query.select.self_s", "s", "lower"),
    # serve
    ("serve.handle.calls", "count", "lower"),
    ("serve.handle.self_s", "s", "lower"),
    ("serve.cache.hit_frac", "ratio", "higher"),
    ("serve.server_cpu_us_per_req", "us", "lower"),
    ("serve.http_overhead_us_per_req", "us", "lower"),
    ("serve.bytes_per_req", "bytes", "lower"),
    ("serve.req_p50_ms.closed", "ms", "lower"),
    ("serve.req_p99_ms.closed", "ms", "lower"),
    ("serve.req_p50_ms.r200", "ms", "lower"),
    ("serve.req_p99_ms.r200", "ms", "lower"),
    ("serve.req_p50_ms.r400", "ms", "lower"),
    ("serve.req_p99_ms.r400", "ms", "lower"),
    ("serve.gen_late_ms_max", "ms", "lower"),
    # monitor
    ("monitor.supervisor.run.calls", "count", "lower"),
    ("monitor.supervisor.run.self_s", "s", "lower"),
    ("monitor.round_p50_ms", "ms", "lower"),
    ("monitor.round_p95_ms", "ms", "lower"),
    ("monitor.round_first20_ms", "ms", "lower"),
    ("monitor.round_last20_ms", "ms", "lower"),
    ("monitor.alerts", "count", "lower"),
    ("monitor.gaps", "count", "lower"),
    # the tracer itself
    ("trace.overhead_frac", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


Summary = Mapping[str, Mapping[str, float]]


def _field(summary: Summary, name: str, key: str) -> float:
    return summary.get(name, {}).get(key, 0.0)


#: Per-layer metrics that are not a plain calls/self/total of one span.
_DERIVED: Dict[str, Callable[[Summary], float]] = {
    "core.confirm_s": lambda s: _field(s, "core.confirm.study_run", "total_s"),
    "scan.shodan.records_per_query": lambda s: _ratio(
        _field(s, "scan.shodan.records", "value"),
        _field(s, "scan.shodan.search", "calls"),
    ),
    "measure.verdict.blocked_frac": lambda s: _ratio(
        _field(s, "measure.verdict.blocked", "value"),
        _field(s, "measure.verdict.compare", "calls"),
    ),
    "measure.verdict.insufficient_frac": lambda s: _ratio(
        _field(s, "measure.verdict.insufficient", "value"),
        _field(s, "measure.verdict.compare", "calls"),
    ),
    "exec.checkpoint.snapshot_bytes": lambda s: _ratio(
        _field(s, "exec.checkpoint.snapshot_bytes", "value"),
        _field(s, "exec.checkpoint.write_snapshot", "calls"),
    ),
}


def layer_values(summary: Summary, measured: Mapping[str, Any]) -> Dict[str, float]:
    """Every per-layer metric from a span summary (see
    :func:`bench.trace.summarize`) and the workload's own measurements,
    which take precedence."""
    values: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        if name in measured:
            value = measured[name]
        elif name in _DERIVED:
            value = _DERIVED[name](summary)
        elif name.endswith(".calls"):
            value = _field(summary, name[: -len(".calls")], "calls")
        elif name.endswith(".self_s"):
            value = _field(summary, name[: -len(".self_s")], "self_s")
        elif name.endswith(".s"):
            value = _field(summary, name[: -len(".s")], "total_s")
        elif name.endswith("_s"):
            value = _field(summary, name[: -len("_s")], "total_s")
        else:
            value = 0.0
        values[name] = float(value)
    return values
