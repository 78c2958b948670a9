import json
import re
from pathlib import Path

from bench import metrics, run

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metrics_match_the_definitions():
    benchmark = _benchmark()
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]
    ] == list(metrics.PER_LAYER)


def test_workloads_match_the_runner():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(run.WORKLOADS)


def test_shape():
    benchmark = _benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in benchmark["workloads"]]
    names += [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= benchmark["run_seconds"] <= 60
