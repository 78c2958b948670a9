"""The executor's determinism contract, as properties.

Whatever the worker count, ``Executor.map`` must be indistinguishable
from a list comprehension (a failing task included: it raises its own
exception once every task has run), the :class:`Sequencer` must commit
turns in submission order, and ``stream``/``map_unordered`` failures
must stay contained to their own slot.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.executor import (
    Executor,
    Sequencer,
    StreamStats,
    TaskFailure,
)
from repro.exec.metrics import Metrics


class DescribeMapEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        items=st.lists(st.integers(-1000, 1000), max_size=40),
        workers=st.integers(1, 8),
    )
    def test_map_is_a_list_comprehension(self, items, workers):
        executor = Executor(workers=workers)
        assert executor.map(lambda x: x * x - 1, items) == [
            x * x - 1 for x in items
        ]

    @settings(max_examples=20, deadline=None)
    @given(items=st.lists(st.text(max_size=8), min_size=1, max_size=20))
    def test_order_is_submission_not_completion(self, items):
        # Earlier items sleep longer, so completion order is reversed
        # relative to submission order unless the merge re-sorts.
        executor = Executor(workers=4)
        n = len(items)

        def tag(pair):
            index, value = pair
            time.sleep(0.002 * (n - index))
            return (index, value.upper())

        result = executor.map(tag, list(enumerate(items)))
        assert result == [(i, v.upper()) for i, v in enumerate(items)]

    def test_map_unordered_yields_every_index_once(self):
        executor = Executor(workers=6)
        seen = sorted(
            index for index, _ in executor.map_unordered(abs, range(50))
        )
        assert seen == list(range(50))

    def test_counts_tasks_in_metrics(self):
        metrics = Metrics()
        executor = Executor(workers=2, metrics=metrics)
        executor.map(abs, range(7), label="probe")
        assert metrics.count("probe.tasks") == 7


class DescribeSequencer:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 30), workers=st.integers(2, 8))
    def test_commits_in_submission_order(self, n, workers):
        sequencer = Sequencer()
        committed = []

        def task(index):
            # Jittered arrival: later tasks often reach the turnstile
            # first and must wait.
            time.sleep(0.001 * ((index * 7) % 3))
            with sequencer.turn(index):
                committed.append(index)
            return index

        Executor(workers=workers).map(task, range(n))
        assert committed == list(range(n))
        assert sequencer.completed == n

    def test_turns_exclude_each_other_under_fast_switching(self):
        """A turn entered without the lock (it was already the caller's)
        still excludes every other turn: a read-modify-write inside the
        turns loses no update."""
        import sys

        sequencer = Sequencer()
        threads_n, per_thread = 8, 40
        total = threads_n * per_thread
        state = {"count": 0, "inside": 0, "overlaps": 0}
        committed = []

        def worker(offset):
            for index in range(offset, total, threads_n):
                with sequencer.turn(index):
                    state["inside"] += 1
                    if state["inside"] != 1:
                        state["overlaps"] += 1
                    value = state["count"]
                    time.sleep(0)
                    state["count"] = value + 1
                    committed.append(index)
                    state["inside"] -= 1

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,), daemon=True)
                for offset in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert state["overlaps"] == 0
        assert state["count"] == total
        assert committed == list(range(total))
        assert sequencer.completed == total


class DescribeInlineRule:
    """A task runs on the calling thread exactly when
    ``min(workers, window) == 1``."""

    @staticmethod
    def _thread(_item):
        return threading.get_ident()

    @pytest.mark.parametrize(
        "workers, window, inline", [(1, 8, True), (4, 1, True), (4, 4, False)]
    )
    def test_stream(self, workers, window, inline):
        out = Executor(workers=workers).stream(
            self._thread, range(5), window=window
        )
        on_caller = {ident == threading.get_ident() for _, ident in out}
        assert on_caller == {inline}

    def test_single_item_map(self):
        out = Executor(workers=4).map(self._thread, ["only"])
        assert out == [threading.get_ident()]


class DescribeFailureContainment:
    @settings(max_examples=20, deadline=None)
    @given(
        items=st.lists(st.integers(-50, 50), min_size=1, max_size=25),
        workers=st.integers(1, 6),
    )
    def test_collect_keeps_siblings_intact(self, items, workers):
        metrics = Metrics()
        executor = Executor(workers=workers, metrics=metrics)

        def fussy(x):
            if x % 3 == 0:
                raise RuntimeError(f"refusing {x}")
            return x + 100

        slots = dict(executor.map_unordered(fussy, items, label="fussy"))
        assert sorted(slots) == list(range(len(items)))
        for index, item in enumerate(items):
            if item % 3 == 0:
                assert isinstance(slots[index], TaskFailure)
            else:
                assert slots[index] == item + 100
        assert metrics.count("fussy.failures") == sum(
            1 for item in items if item % 3 == 0
        )

    def test_raise_mode_raises_lowest_index_failure(self):
        """At any worker count, ``map`` runs every task, then raises the
        lowest-index task's own exception, not a wrapper."""
        for workers in (1, 4):
            ran = []
            lock = threading.Lock()

            def fussy(x):
                with lock:
                    ran.append(x)
                if x in (2, 5):
                    raise KeyError(f"refusing {x}")
                return x

            metrics = Metrics()
            executor = Executor(workers=workers, metrics=metrics)
            with pytest.raises(KeyError) as excinfo:
                executor.map(fussy, range(8), label="fussy")
            assert excinfo.value.args == ("refusing 2",)
            assert sorted(ran) == list(range(8))
            assert metrics.count("fussy.failures") == 2

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            Executor(workers=0)


class DescribeFailureAttribution:
    def test_task_failure_str_names_campaign_and_attempts(self):
        failure = TaskFailure("fetch", 3, 4, ValueError("x"))
        text = str(failure)
        assert "fetch[3]" in text
        assert "4 attempt(s)" in text

    def test_without_campaign_message_is_unchanged(self):
        failure = TaskFailure("net", 1, 2, ValueError("x"))
        assert str(failure) == "task net[1] failed after 2 attempt(s): ValueError('x')"


# ---------------------------------------------------------------------------
# Streaming fan-out and the process backend
# ---------------------------------------------------------------------------

def _square(x):
    """Module-level so process pools can pickle it."""
    return x * x


def _explode_on_seven(x):
    if x == 7:
        raise ValueError("seven is right out")
    return x + 1


class DescribeStream:
    @settings(max_examples=25, deadline=None)
    @given(
        items=st.lists(st.integers(-100, 100), max_size=30),
        workers=st.integers(1, 8),
        window=st.integers(1, 12),
    )
    def test_stream_is_an_ordered_enumeration(self, items, workers, window):
        executor = Executor(workers=workers)
        out = list(
            executor.stream(lambda x: x * 3, items, window=window)
        )
        assert out == [(i, x * 3) for i, x in enumerate(items)]

    def test_window_bounds_inflight(self):
        stats = StreamStats()
        executor = Executor(workers=8)
        results = list(
            executor.stream(
                lambda x: time.sleep(0.002) or x,
                range(60),
                window=5,
                stats=stats,
            )
        )
        assert len(results) == 60
        assert stats.peak_inflight <= 5
        assert stats.submitted == stats.completed == 60

    def test_failures_arrive_in_slot_not_raised(self):
        executor = Executor(workers=4)
        out = list(executor.stream(_explode_on_seven, range(10), window=4))
        for index, value in out:
            if index == 7:
                assert isinstance(value, TaskFailure)
            else:
                assert value == index + 1

    def test_stream_consumes_items_lazily(self):
        pulled = []

        def items():
            for i in range(100):
                pulled.append(i)
                yield i

        executor = Executor(workers=2)
        stream = executor.stream(lambda x: x, items(), window=4)
        first = [next(stream) for _ in range(3)]
        assert first == [(0, 0), (1, 1), (2, 2)]
        # Backpressure: nowhere near 100 items drawn while only 3 yielded.
        assert len(pulled) <= 3 + 4 + 1
        stream.close()

    def test_window_must_be_positive(self):
        executor = Executor(workers=2)
        with pytest.raises(ValueError):
            list(executor.stream(_square, [1], window=0))


class DescribeProcessBackend:
    def test_backend_validation(self):
        with pytest.raises(ValueError):
            Executor(workers=2, backend="carrier-pigeon")

    def test_map_matches_thread_backend(self):
        items = list(range(25))
        thread = Executor(workers=4).map(_square, items)
        process = Executor(workers=4, backend="process").map(_square, items)
        assert thread == process == [x * x for x in items]

    def test_map_unordered_covers_every_index(self):
        executor = Executor(workers=4, backend="process")
        got = sorted(executor.map_unordered(_square, range(20)))
        assert got == [(i, i * i) for i in range(20)]

    def test_stream_ordered_under_process_pool(self):
        executor = Executor(workers=4, backend="process")
        out = list(executor.stream(_square, range(30), window=6))
        assert out == [(i, i * i) for i in range(30)]

    def test_process_failures_stay_in_slot(self):
        executor = Executor(workers=3, backend="process")
        out = list(executor.stream(_explode_on_seven, range(9), window=4))
        assert isinstance(out[7][1], TaskFailure)
        assert [v for i, v in out if i != 7] == [
            i + 1 for i in range(9) if i != 7
        ]

    def test_process_metrics_counted_parent_side(self):
        metrics = Metrics()
        executor = Executor(workers=2, backend="process", metrics=metrics)
        list(executor.stream(_explode_on_seven, range(8), label="batch"))
        assert metrics.count("batch.tasks") == 8
        assert metrics.count("batch.failures") == 1


def _always_die(args):
    """SIGKILL the pool worker that draws item 5.

    os._exit(-9)-style death (here a raw SIGKILL to self) is what a
    cgroup OOM-kill or operator kill -9 looks like from the parent: the
    future breaks with BrokenProcessPool rather than raising a normal
    exception.
    """
    import os as _os
    import signal as _signal

    x, _flag = args
    if x == 5:
        _os.kill(_os.getpid(), _signal.SIGKILL)
    return x * x


def _die_on_cue(args):
    """Item 1 waits for a ``go`` file, marks ``dying``, then SIGKILLs
    its pool worker; every other item squares at once."""
    import os as _os
    import signal as _signal

    x, folder = args
    if x == 1:
        deadline = time.monotonic() + 10.0
        while not _os.path.exists(_os.path.join(folder, "go")):
            if time.monotonic() > deadline:
                raise TimeoutError("no cue")
            time.sleep(0.01)
        open(_os.path.join(folder, "dying"), "w").close()
        _os.kill(_os.getpid(), _signal.SIGKILL)
    return x * x


class DescribeProcessWorkerDeath:
    """SIGKILLed pool workers degrade to transient TaskFailure, never
    an uncaught BrokenProcessPool or a hang."""

    def test_map_unordered_without_retry_yields_transient_failures(
        self, tmp_path
    ):
        metrics = Metrics()
        executor = Executor(workers=2, backend="process", metrics=metrics)
        items = [(i, str(tmp_path / "unused")) for i in range(8)]
        results = list(
            executor.map_unordered(_always_die, items, label="scan")
        )
        assert len(results) == 8
        failures = [v for _, v in results if isinstance(v, TaskFailure)]
        successes = sorted(
            (i, v) for i, v in results if not isinstance(v, TaskFailure)
        )
        # Item 5 always kills its worker; collateral in-flight siblings
        # may fail transiently too, but every failure is typed.
        assert failures
        assert all(f.transient for f in failures)
        assert all(f.label == "scan" for f in failures)
        assert metrics.count("scan.failures") == len(failures)
        for index, value in successes:
            assert value == index * index

    def test_stream_without_retry_marks_the_failure_transient(
        self, tmp_path
    ):
        executor = Executor(workers=2, backend="process")
        items = [(i, str(tmp_path / "unused")) for i in range(10)]
        out = list(
            executor.stream(_always_die, items, window=3, label="scan")
        )
        assert [i for i, _ in out] == list(range(10))
        failures = [v for _, v in out if isinstance(v, TaskFailure)]
        assert failures
        assert all(f.transient and f.label == "scan" for f in failures)
        for index, value in out:
            if not isinstance(value, TaskFailure):
                assert value == index * index

    def test_submission_into_a_broken_pool_is_resubmitted(self, tmp_path):
        # Item 2 is drawn only after item 1 has killed its worker, so its
        # submission hits the broken pool. It never ran, so it must
        # succeed on the replacement pool rather than fail with item 1.
        metrics = Metrics()
        stats = StreamStats()
        executor = Executor(workers=2, backend="process", metrics=metrics)
        items = [(i, str(tmp_path)) for i in range(3)]
        stream = executor.stream(
            _die_on_cue, items, window=2, label="scan", stats=stats
        )
        assert next(stream) == (0, 0)
        (tmp_path / "go").touch()
        deadline = time.monotonic() + 10.0
        while not (tmp_path / "dying").exists():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(1.0)  # let the pool notice its dead worker
        (index, failure), (last, value) = list(stream)
        assert index == 1 and isinstance(failure, TaskFailure)
        assert failure.transient
        assert (last, value) == (2, 4)
        assert metrics.count("scan.tasks") == 3
        assert metrics.count("scan.failures") == 1
        assert stats.submitted == stats.completed == 3

    def test_ordinary_task_errors_are_not_transient(self):
        executor = Executor(workers=3, backend="process")
        out = list(executor.stream(_explode_on_seven, range(9), window=4))
        failure = out[7][1]
        assert isinstance(failure, TaskFailure)
        assert failure.transient is False
