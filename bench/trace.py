"""Span tracing of the program's layers, from outside the program.

The tracer wraps the public functions named in :data:`TABLE` — one row
per layer boundary, each mapped to a span name whose first dotted part
is the layer — and records a span per call: name, start, end, parent
span, thread and run id. Spans are kept in memory and written as JSONL
when the run ends. Removing the tracer puts every original function
object back, so an untraced run executes exactly the program's code.

Row kinds:

``span``
    one recorded span per call.
``leaf``
    a hot function called per host; only its call count and total time
    are kept, and the time is charged as child time to the enclosing
    span on the same thread.
``attributed``
    recorded with its parent, but its time stays in the parent's self
    time (``os.fsync`` is a cost of the layer that calls it).
``propagate``
    no span; the callable argument is run on the caller's span when a
    pool thread executes it, so spans there get the right parent.

Self time is a span's duration minus the part of its interval covered by
its child spans (on any thread; overlapping children count once) and
minus the time of ``leaf`` calls made directly under it.

Summarize a written trace with ``python bench/trace.py summarize FILE``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

SPAN = "span"
LEAF = "leaf"
ATTRIBUTED = "attributed"
PROPAGATE = "propagate"


@dataclass(frozen=True)
class Probe:
    """One wrapped function: span name, ``module:qualname``, kind."""

    name: str
    target: str
    kind: str = SPAN
    #: Name of a counter hook in :data:`OBSERVERS` fed each call's result.
    observe: Optional[str] = None


TABLE: Tuple[Probe, ...] = (
    Probe("world.build_scenario", "repro.world.scenario:build_scenario"),
    Probe("world.fetch", "repro.world.world:World.fetch"),
    Probe(
        "world.population.raw_at",
        "repro.world.population:ShardedPopulation.raw_at",
        LEAF,
    ),
    Probe("scan.scan_world", "repro.scan.banner:scan_world"),
    Probe(
        "scan.shodan.search",
        "repro.scan.shodan:ShodanIndex.search",
        observe="records",
    ),
    Probe("scan.whatweb.identify", "repro.scan.whatweb:WhatWebEngine.identify"),
    Probe("scan.stream.scan_batch", "repro.scan.stream:scan_batch"),
    Probe("core.identify", "repro.core.identify:IdentificationPipeline.run"),
    Probe(
        "core.identify.locate",
        "repro.core.identify:IdentificationPipeline.locate",
    ),
    Probe(
        "core.identify.validate",
        "repro.core.identify:IdentificationPipeline.validate",
    ),
    Probe("core.confirm.study_run", "repro.core.confirm:ConfirmationStudy.run"),
    Probe(
        "core.characterize",
        "repro.core.characterize:ContentCharacterization.run",
    ),
    Probe("measure.test_url", "repro.measure.client:MeasurementClient.test_url"),
    Probe("measure.run_list", "repro.measure.client:MeasurementClient.run_list"),
    Probe(
        "measure.verdict.compare",
        "repro.measure.classifiers.fusion:VerdictEngine.compare",
        observe="verdict",
    ),
    Probe("discover.index.build", "repro.discover.index:SearchIndex.build"),
    Probe("discover.index.query", "repro.discover.index:SearchIndex.query"),
    Probe(
        "exec.executor.map_unordered",
        "repro.exec.executor:Executor.map_unordered",
        PROPAGATE,
    ),
    Probe("exec.executor.stream", "repro.exec.executor:Executor.stream", PROPAGATE),
    Probe("exec.journal.append", "repro.exec.journal:JournalWriter.append"),
    Probe(
        "exec.checkpoint.write_snapshot",
        "repro.exec.checkpoint:write_snapshot",
        observe="file_bytes",
    ),
    Probe("fsync", "os:fsync", ATTRIBUTED),
    Probe("store.commit", "repro.store.store:ResultsStore.commit"),
    Probe("store.records", "repro.store.store:ResultsStore.records"),
    Probe("store.stream.write", "repro.store.segments:EpochStream.write"),
    Probe("store.stream.finalize", "repro.store.segments:EpochStream.finalize"),
    Probe("query.select", "repro.query.engine:QueryEngine.select"),
    Probe("query.table", "repro.query.engine:QueryEngine.table"),
    Probe("query.diff", "repro.query.engine:QueryEngine.diff"),
    Probe("serve.handle", "repro.serve.api:StoreApi.handle"),
    Probe(
        "monitor.supervisor.run",
        "repro.monitor.supervisor:RoundSupervisor.run",
    ),
)


def _observe_records(args: tuple, result: Any) -> Iterable[Tuple[str, float]]:
    # ShodanIndex.search scans every record of the index once per query.
    yield "scan.shodan.records", len(args[0])


def _observe_verdict(args: tuple, result: Any) -> Iterable[Tuple[str, float]]:
    yield "measure.verdict.blocked", int(result.blocked)
    yield "measure.verdict.insufficient", int(result.verdict.name == "INSUFFICIENT")


def _observe_file_bytes(args: tuple, result: Any) -> Iterable[Tuple[str, float]]:
    yield "exec.checkpoint.snapshot_bytes", os.path.getsize(result)


OBSERVERS: Dict[str, Callable[[tuple, Any], Iterable[Tuple[str, float]]]] = {
    "records": _observe_records,
    "verdict": _observe_verdict,
    "file_bytes": _observe_file_bytes,
}


# ------------------------------------------------------------------ resolve
def _resolve(target: str) -> Tuple[Any, str]:
    """(owner, attribute) holding ``module:qualname``'s definition.

    For a method the owner is the class in the MRO whose ``__dict__``
    defines it, so the patch replaces the raw descriptor exactly once.
    """
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attribute in vars(klass):
                return klass, attribute
        raise AttributeError(f"{target}: no such attribute")
    if not hasattr(owner, attribute):
        raise AttributeError(f"{target}: no such attribute")
    return owner, attribute


# ------------------------------------------------------------------- tracer
class Tracer:
    """Installs the :data:`TABLE` wrappers and collects their spans."""

    def __init__(
        self,
        table: Tuple[Probe, ...] = TABLE,
        *,
        run_id: Optional[str] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.table = table
        self.run_id = run_id or f"{os.getpid()}-{time.time_ns()}"
        self.clock = clock
        #: (id, name, start, end, parent, thread, leaf_s, attributed)
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self._leaf_tables: List[Dict[str, List[float]]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # ----------------------------------------------------------- lifecycle
    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for probe in self.table:
                self._patch(probe)
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.remove()

    def _patch(self, probe: Probe) -> None:
        owner, attribute = _resolve(probe.target)
        raw = vars(owner)[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(self._wrap(probe, raw.__func__))
        else:
            replacement = self._wrap(probe, raw)
        if isinstance(owner, type):
            self._patches.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)
            return
        # A module-level function is also bound by name wherever it was
        # imported with ``from module import name``; patch every binding.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is raw:
                    self._patches.append((module, name, raw))
                    setattr(module, name, replacement)

    # ------------------------------------------------------------ wrappers
    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _leaf_table(self) -> Dict[str, List[float]]:
        table = getattr(self._local, "leaves", None)
        if table is None:
            table = self._local.leaves = {}
            with self._lock:
                self._leaf_tables.append(table)
        return table

    def _record(
        self,
        name: str,
        start: float,
        end: float,
        frame: List[Any],
        parent: Optional[List[Any]],
        attributed: bool = False,
    ) -> None:
        self.spans.append(
            (
                frame[0],
                name,
                start,
                end,
                parent[0] if parent else None,
                threading.get_ident(),
                frame[1],
                attributed,
            )
        )

    def _count(self, observer: str, args: tuple, result: Any) -> None:
        updates = list(OBSERVERS[observer](args, result))
        with self._lock:
            for counter, amount in updates:
                self.counters[counter] = self.counters.get(counter, 0) + amount

    def _wrap(self, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
        name = probe.name
        clock = self.clock
        tracer = self
        local = self._local

        if probe.kind == LEAF:

            @functools.wraps(fn)
            def leaf(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    try:
                        stack, table = local.stack, local.leaves
                    except AttributeError:
                        stack, table = tracer._stack(), tracer._leaf_table()
                    if stack:
                        stack[-1][1] += elapsed
                    entry = table.get(name)
                    if entry is None:
                        table[name] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed

            return leaf

        if probe.kind == PROPAGATE:

            @functools.wraps(fn)
            def propagate(
                self_: Any, task: Callable[..., Any], *args: Any, **kwargs: Any
            ) -> Any:
                if getattr(self_, "backend", "thread") == "thread":
                    task = tracer.carry(task)
                return fn(self_, task, *args, **kwargs)

            return propagate

        attributed = probe.kind == ATTRIBUTED
        observer = probe.observe

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._record(name, start, end, frame, parent, attributed)
            if observer is not None:
                tracer._count(observer, args, result)
            return result

        return span

    def carry(self, task: Callable[..., Any]) -> Callable[..., Any]:
        """``task`` bound to the current span, for running on another
        thread; on the calling thread it runs unchanged."""
        stack = self._stack()
        if not stack:
            return task
        origin = threading.get_ident()
        parent_id = stack[-1][0]

        @functools.wraps(task)
        def carried(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() == origin:
                return task(*args, **kwargs)
            saved = getattr(self._local, "stack", None)
            # Leaf time under a borrowed parent is not charged to it: the
            # parent's own thread may be running concurrently.
            self._local.stack = [[parent_id, 0.0]]
            try:
                return task(*args, **kwargs)
            finally:
                self._local.stack = saved

        return carried

    # -------------------------------------------------------------- output
    def records(self) -> List[Dict[str, Any]]:
        """Every span, leaf total and counter as JSON-ready dicts."""
        out: List[Dict[str, Any]] = [
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "thread": thread,
                "run": self.run_id,
                "leaf_s": leaf_s,
                "attributed": attributed,
            }
            for span_id, name, start, end, parent, thread, leaf_s, attributed in list(
                self.spans
            )
        ]
        leaves: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._leaf_tables)
            counters = dict(self.counters)
        for table in tables:
            for name, (calls, total) in list(table.items()):
                entry = leaves.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += total
        for name, (calls, total) in sorted(leaves.items()):
            out.append(
                {"leaf": name, "calls": calls, "total_s": total, "run": self.run_id}
            )
        for name, value in sorted(counters.items()):
            out.append({"counter": name, "value": value, "run": self.run_id})
        return out


# ---------------------------------------------------------------- summaries
def _covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def summarize(records: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s``; plus counters
    under their own names with a ``value``."""
    spans = []
    summary: Dict[str, Dict[str, float]] = {}
    for record in records:
        if "leaf" in record:
            entry = summary.setdefault(
                record["leaf"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += record["calls"]
            entry["total_s"] += record["total_s"]
            entry["self_s"] += record["total_s"]
        elif "counter" in record:
            entry = summary.setdefault(record["counter"], {"value": 0.0})
            entry["value"] += record["value"]
        else:
            spans.append(record)
    children: Dict[Tuple[str, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None and not span["attributed"]:
            children.setdefault((span["run"], span["parent"]), []).append(
                (span["start"], span["end"])
            )
    for span in spans:
        duration = span["end"] - span["start"]
        inner = children.get((span["run"], span["id"]), [])
        own = duration - _covered(inner, span["start"], span["end"]) - span["leaf_s"]
        entry = summary.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += max(own, 0.0)
    return summary


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_table(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, total time and self time.

    A layer's total counts only its outermost spans, so a span nested in
    another span of the same layer is not counted twice.
    """
    spans = [record for record in records if "id" in record]
    names = {(span["run"], span["id"]): span["name"] for span in spans}
    layers: Dict[str, Dict[str, float]] = {}

    def row(layer: str) -> Dict[str, float]:
        return layers.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    for span in spans:
        entry = row(_layer(span["name"]))
        entry["calls"] += 1
        parent = names.get((span["run"], span["parent"]))
        if parent is None or _layer(parent) != _layer(span["name"]):
            entry["total_s"] += span["end"] - span["start"]
    for record in records:
        if "leaf" in record:
            entry = row(_layer(record["leaf"]))
            entry["calls"] += record["calls"]
            entry["total_s"] += record["total_s"]
    for name, entry in summarize(records).items():
        if "self_s" in entry:
            row(_layer(name))["self_s"] += entry["self_s"]
    return layers


def write_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _print_summary(records: List[Dict[str, Any]]) -> None:
    layers = layer_table(records)
    print(f"{'layer':10s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}")
    for layer, entry in sorted(layers.items()):
        print(
            f"{layer:10s} {int(entry['calls']):10d} "
            f"{entry['total_s']:10.4f} {entry['self_s']:10.4f}"
        )
    print()
    print(f"{'span':36s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}")
    for name, entry in sorted(summarize(records).items()):
        if "value" in entry:
            print(f"{name:36s} {'counter':>10s} {entry['value']:21.4f}")
            continue
        print(
            f"{name:36s} {int(entry['calls']):10d} "
            f"{entry['total_s']:10.4f} {entry['self_s']:10.4f}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    summary = commands.add_parser(
        "summarize", help="per-layer calls, total and self time of a trace"
    )
    summary.add_argument("file", help="JSONL trace written by bench/run.py --spans")
    args = parser.parse_args(argv)
    _print_summary(read_jsonl(args.file))
    return 0


if __name__ == "__main__":
    sys.exit(main())
