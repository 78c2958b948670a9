"""Thread-safety regression tests for execution metrics.

The serving API hammers one shared :class:`Metrics` from every request
thread; a lost update under ``incr`` would silently undercount cache
hits and 304s, so the counter path is hammered from 8 threads here.
"""

from __future__ import annotations

import threading

from repro.exec.metrics import Metrics


class DescribeCounterThreadSafety:
    def test_incr_from_eight_threads_loses_no_updates(self):
        metrics = Metrics()
        threads = 8
        per_thread = 5000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()  # maximize interleaving
            for _ in range(per_thread):
                metrics.incr("hammered")

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert metrics.count("hammered") == threads * per_thread

    def test_incr_amounts_accumulate(self):
        metrics = Metrics()
        metrics.incr("n", 3)
        metrics.incr("n", 4)
        assert metrics.count("n") == 7
        assert metrics.count("absent") == 0


class DescribeTimerThreadSafety:
    def test_concurrent_timers_lose_no_calls(self):
        metrics = Metrics()
        threads = 8
        per_thread = 500
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                with metrics.timer("stage"):
                    pass

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        timers = metrics.as_dict()["timers"]
        assert timers["stage"]["calls"] == threads * per_thread
