import json
import subprocess
import sys
from pathlib import Path

from bench import metrics, run

ROOT = Path(__file__).resolve().parents[2]


def _run(workload, value, correct=True, failed=0):
    return {
        "workload": workload,
        "trace": 0,
        "result": {
            "correct": correct,
            "attempted": 10,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, unit, _ in metrics.END_TO_END
            }
            if correct
            else {},
        },
    }


def _write(path, runs):
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def _compare(a, b):
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"), a, b],
        capture_output=True,
        text=True,
        timeout=60,
    )


def _all(value, **kwargs):
    return [_run(name, value, **kwargs) for name in run.WORKLOADS for _ in range(3)]


def test_equal_sets_pass(tmp_path):
    a = _write(tmp_path / "a.json", _all(1.0))
    completed = _compare(a, a)
    assert completed.returncode == 0, completed.stdout
    assert "INCORRECT" not in completed.stdout


def test_a_regression_fails(tmp_path):
    a = _write(tmp_path / "a.json", _all(1.0))
    b = _write(tmp_path / "b.json", _all(2.0))
    completed = _compare(a, b)
    assert completed.returncode == 1
    assert "REGRESSION" in completed.stdout


def test_incorrect_candidate_runs_fail_the_comparison(tmp_path):
    a = _write(tmp_path / "a.json", _all(1.0))
    b = _write(tmp_path / "b.json", _all(1.0, correct=False))
    completed = _compare(a, b)
    assert completed.returncode == 1
    assert completed.stdout.count("INCORRECT") == len(run.WORKLOADS)


def test_a_run_with_failed_operations_is_incorrect(tmp_path):
    a = _write(tmp_path / "a.json", _all(1.0))
    runs = _all(1.0)
    runs[0]["result"]["failed"] = 1
    b = _write(tmp_path / "b.json", runs)
    completed = _compare(a, b)
    assert completed.returncode == 1
    assert completed.stdout.count("INCORRECT") == 1


def test_missing_workload_fails_the_comparison(tmp_path):
    a = _write(tmp_path / "a.json", _all(1.0))
    b = _write(tmp_path / "b.json", [r for r in _all(1.0) if r["workload"] != "scan"])
    completed = _compare(a, b)
    assert completed.returncode == 1
    assert "MISSING" in completed.stdout
