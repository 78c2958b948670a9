from pathlib import Path

import pytest

from bench import run, workloads


def _measurement(*digests, failed=0):
    return run.Measurement(
        values={name: 1.0 for name, _, _ in run.metrics.END_TO_END},
        attempted=10,
        failed=failed,
        digests=list(digests),
    )


def test_pinned_digest_passes():
    pinned = workloads.PINNED["study"]
    assert run.check("study", workloads.PINNED_SEED, _measurement(pinned)) == []


def test_tampered_digest_at_the_pinned_seed_is_rejected():
    problems = run.check("study", workloads.PINNED_SEED, _measurement("0" * 64))
    assert problems and "pinned" in problems[0]


def test_traced_and_untraced_digests_must_agree_at_any_seed():
    assert run.check("scan", 2014, _measurement("a" * 64, "a" * 64)) == []
    problems = run.check("scan", 2014, _measurement("a" * 64, "b" * 64))
    assert problems and "different digests" in problems[0]


def test_failed_operations_reject_the_run():
    pinned = workloads.PINNED["discover"]
    measurement = _measurement(pinned, failed=1)
    problems = run.check("discover", workloads.PINNED_SEED, measurement)
    assert problems == ["1 of 10 operations failed"]
    line = run.result_line(measurement, problems, traced=False)
    assert line["correct"] is False and line["metrics"] == {}


def test_a_rejected_run_reports_no_metrics():
    measurement = _measurement("0" * 64)
    problems = run.check("study", workloads.PINNED_SEED, measurement)
    line = run.result_line(measurement, problems, traced=False)
    assert line["correct"] is False
    assert line["metrics"] == {}
    ok = run.result_line(measurement, [], traced=False)
    assert ok["correct"] is True
    assert set(ok["metrics"]) == {name for name, _, _ in run.metrics.END_TO_END}


def test_tampered_stored_output_fails_verification(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SCAN_HOSTS", 2_000)
    scan = workloads.Scan(2014, tmp_path)
    state = scan.setup()
    result = scan.run(state)
    assert result.problems == [] and scan.verify(state, result) == []

    segment = next(Path(state[-1]).rglob("installations*"))
    data = bytearray(segment.read_bytes())
    data[len(data) // 2] ^= 0xFF
    segment.write_bytes(bytes(data))
    assert scan.verify(state, result)
    scan.close(state)


@pytest.mark.parametrize("name", sorted(workloads.PINNED))
def test_every_workload_has_a_pinned_digest(name):
    assert len(workloads.PINNED[name]) == 64
