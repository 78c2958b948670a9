import pytest

from bench import loadgen


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def _load(clock, service_times, bodies=None):
    """One connection; request i takes ``service_times[i]`` seconds."""
    targets = ["/a", "/b"]
    expected = {"/a": b"A", "/b": b"B"}
    served = []

    def send(worker, target):
        index = len(served)
        served.append(target)
        clock.now += service_times[index]
        body = (bodies or {}).get(index, expected[target])
        return 200, body

    load = loadgen.Load(
        send,
        targets,
        [0, 1],
        expected,
        connections=1,
        clock=clock,
        sleep=clock.sleep,
    )
    return load, served


def test_open_loop_times_requests_from_when_they_were_due():
    clock = FakeClock()
    # Request 0 stalls for 0.5 s; the rest take 10 ms.
    load, _ = _load(clock, [0.5] + [0.01] * 9)
    result = load.open(rate=10, seconds=1.0)
    dues = [outcome.due for outcome in result.outcomes]
    assert dues == pytest.approx([i / 10 for i in range(10)])
    latencies = [outcome.latency for outcome in result.outcomes]
    lates = [outcome.late for outcome in result.outcomes]
    # The stall is charged to every request queued behind it.
    assert latencies[:4] == pytest.approx([0.5, 0.41, 0.32, 0.23])
    assert lates[:4] == pytest.approx([0.0, 0.4, 0.31, 0.22])
    # Once the backlog drains, requests leave on time again.
    assert lates[-1] == pytest.approx(0.0)
    assert latencies[-1] == pytest.approx(0.01)
    assert max(lates) == pytest.approx(0.4)
    assert result.failed == 0


def test_open_loop_sleeps_until_due_when_idle():
    clock = FakeClock()
    load, _ = _load(clock, [0.01] * 5)
    result = load.open(rate=5, seconds=1.0)
    assert [outcome.sent for outcome in result.outcomes] == pytest.approx(
        [0.0, 0.2, 0.4, 0.6, 0.8]
    )
    assert all(outcome.late == pytest.approx(0.0) for outcome in result.outcomes)


def test_closed_loop_sends_when_the_previous_reply_arrives():
    clock = FakeClock()
    load, served = _load(clock, [0.25] * 8)
    result = load.closed(4)
    assert len(result.outcomes) == 4
    assert served == ["/a", "/b", "/a", "/b"]
    assert all(outcome.late == 0.0 for outcome in result.outcomes)
    assert [outcome.done for outcome in result.outcomes] == pytest.approx(
        [0.25, 0.5, 0.75, 1.0]
    )


def test_wrong_body_counts_as_failed():
    clock = FakeClock()
    load, _ = _load(clock, [0.01] * 4, bodies={1: b"tampered"})
    result = load.open(rate=4, seconds=1.0)
    assert [outcome.ok for outcome in result.outcomes] == [True, False, True, True]
    assert result.failed == 1


def test_zipf_draws_favour_low_ranks_and_repeat_per_seed():
    draws = loadgen.zipf_draws(300, 20_000, seed=5)
    assert draws == loadgen.zipf_draws(300, 20_000, seed=5)
    assert min(draws) >= 0 and max(draws) < 300
    assert draws.count(0) > draws.count(10) > draws.count(200)
