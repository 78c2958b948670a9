import threading
import time

import pytest

from bench import trace
from bench.trace import LEAF, PROPAGATE, Probe, Tracer


def _span(span_id, start, end, parent=None, thread=1, leaf_s=0.0, attributed=False):
    return {
        "id": span_id,
        "name": f"layer.s{span_id}",
        "start": start,
        "end": end,
        "parent": parent,
        "thread": thread,
        "run": "r",
        "leaf_s": leaf_s,
        "attributed": attributed,
    }


def _self(records):
    return {name: entry["self_s"] for name, entry in trace.summarize(records).items()}


def test_self_time_subtracts_nested_children():
    own = _self(
        [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 4.0, parent=1),
            _span(3, 2.0, 3.0, parent=2),
        ]
    )
    assert own == {"layer.s1": 7.0, "layer.s2": 2.0, "layer.s3": 1.0}


def test_children_overlapping_across_threads_count_once():
    own = _self(
        [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 4.0, parent=1, thread=2),
            _span(3, 3.0, 6.0, parent=1, thread=3),
            _span(4, 5.0, 5.5, parent=1, thread=2),
        ]
    )
    assert own["layer.s1"] == pytest.approx(5.0)


def test_children_are_clipped_to_the_parent_interval():
    own = _self([_span(1, 0.0, 2.0), _span(2, 1.0, 5.0, parent=1, thread=2)])
    assert own["layer.s1"] == pytest.approx(1.0)


def test_attributed_children_and_leaf_time():
    own = _self(
        [
            _span(1, 0.0, 10.0, leaf_s=2.0),
            _span(2, 4.0, 5.0, parent=1, attributed=True),
        ]
    )
    assert own["layer.s1"] == pytest.approx(8.0)


def test_layer_total_counts_outermost_spans_only():
    records = [
        {**_span(1, 0.0, 10.0), "name": "core.a"},
        {**_span(2, 1.0, 4.0, parent=1), "name": "core.b"},
        {**_span(3, 5.0, 6.0, parent=1), "name": "scan.c"},
    ]
    layers = trace.layer_table(records)
    assert layers["core"]["calls"] == 2
    assert layers["core"]["total_s"] == pytest.approx(10.0)
    assert layers["core"]["self_s"] == pytest.approx(9.0)
    assert layers["scan"]["total_s"] == pytest.approx(1.0)


def _raw(probe):
    owner, attribute = trace._resolve(probe.target)
    if isinstance(owner, type):
        return vars(owner)[attribute]
    return getattr(owner, attribute)


def test_install_then_remove_restores_every_original():
    import repro
    import repro.core.pipeline
    import repro.scan.banner

    originals = {probe.name: _raw(probe) for probe in trace.TABLE}
    scan_world = repro.scan.banner.scan_world
    assert repro.core.pipeline.scan_world is scan_world
    build_scenario = repro.build_scenario

    tracer = Tracer().install()
    try:
        for probe in trace.TABLE:
            assert _raw(probe) is not originals[probe.name], probe.name
        # ``from module import name`` bindings are patched too.
        assert repro.core.pipeline.scan_world is repro.scan.banner.scan_world
        assert repro.core.pipeline.scan_world is not scan_world
        assert repro.build_scenario is not build_scenario
    finally:
        tracer.remove()

    for probe in trace.TABLE:
        assert _raw(probe) is originals[probe.name], probe.name
    assert repro.core.pipeline.scan_world is scan_world
    assert repro.build_scenario is build_scenario


def leaf_work():
    time.sleep(0.02)


def inner(delay):
    time.sleep(delay)
    return delay


def outer():
    from repro.exec.executor import Executor

    leaf_work()
    return Executor(workers=2).map(lambda delay: inner(delay), [0.1, 0.1])


_TEST_TABLE = (
    Probe("t.outer", f"{__name__}:outer"),
    Probe("t.inner", f"{__name__}:inner"),
    Probe("t.leaf", f"{__name__}:leaf_work", LEAF),
    Probe(
        "exec.map_unordered",
        "repro.exec.executor:Executor.map_unordered",
        PROPAGATE,
    ),
)


def test_live_spans_parent_across_pool_threads():
    with Tracer(_TEST_TABLE) as tracer:
        assert outer() == [0.1, 0.1]
    records = tracer.records()
    spans = [record for record in records if "id" in record]
    (outer_span,) = [s for s in spans if s["name"] == "t.outer"]
    inners = [s for s in spans if s["name"] == "t.inner"]
    assert len(inners) == 2
    assert {s["parent"] for s in inners} == {outer_span["id"]}
    assert all(s["thread"] != outer_span["thread"] for s in inners)
    assert outer_span["leaf_s"] >= 0.02

    summary = trace.summarize(records)
    assert summary["t.leaf"]["calls"] == 1
    covered = trace._covered(
        [(s["start"], s["end"]) for s in inners],
        outer_span["start"],
        outer_span["end"],
    )
    # The two 0.1 s children ran at once and count once.
    assert covered < 0.15
    assert summary["t.outer"]["self_s"] == pytest.approx(
        summary["t.outer"]["total_s"] - covered - outer_span["leaf_s"]
    )


def test_spans_record_thread_and_run():
    with Tracer(_TEST_TABLE[:2], run_id="run-7") as tracer:
        # Overlapping lifetimes, so the three thread idents are distinct.
        threads = [threading.Thread(target=inner, args=(0.2,)) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    records = tracer.records()
    assert {record["run"] for record in records} == {"run-7"}
    assert len({record["thread"] for record in records}) == 3
    assert all(record["parent"] is None for record in records)
