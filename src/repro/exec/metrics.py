"""Lightweight execution instrumentation.

Counters and wall-clock timers for the pipeline's stages and fan-outs.
The numbers here describe *how the reproduction ran* (tasks, retries,
stage durations) — never *what it measured* — so they are
deliberately kept out of :class:`~repro.core.pipeline.StudyReport`:
study output must stay byte-identical across worker counts while
timings, by nature, are not.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List


@dataclass
class TimerStats:
    """Aggregate wall-clock stats for one named timer."""

    calls: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def record(self, elapsed: float) -> None:
        self.calls += 1
        self.total_seconds += elapsed
        if elapsed > self.max_seconds:
            self.max_seconds = elapsed

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class Metrics:
    """Thread-safe counters and timers with a per-stage summary."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, TimerStats] = {}

    # ----------------------------------------------------------- counters
    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def count(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # ------------------------------------------------------------- timers
    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        started = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - started
            with self._lock:
                stats = self._timers.setdefault(name, TimerStats())
                stats.record(elapsed)

    # ------------------------------------------------------------ reports
    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "timers": {
                    name: {
                        "calls": stats.calls,
                        "total_seconds": stats.total_seconds,
                        "mean_seconds": stats.mean_seconds,
                        "max_seconds": stats.max_seconds,
                    }
                    for name, stats in sorted(self._timers.items())
                },
            }

    def summary_lines(self) -> List[str]:
        """Human-readable per-stage summary for the CLI."""
        snapshot = self.as_dict()
        lines: List[str] = []
        timers = snapshot["timers"]
        if timers:
            lines.append("stage timings:")
            for name, stats in timers.items():  # type: ignore[union-attr]
                lines.append(
                    f"  {name:24s} {stats['calls']:5d} call(s)  "
                    f"total {stats['total_seconds']:8.3f}s  "
                    f"mean {stats['mean_seconds']:8.4f}s"
                )
        counters = snapshot["counters"]
        if counters:
            lines.append("counters:")
            for name, value in counters.items():  # type: ignore[union-attr]
                lines.append(f"  {name:32s} {value}")
        if not lines:
            lines.append("no execution metrics recorded")
        return lines

    def summary(self) -> str:
        return "\n".join(self.summary_lines())
