"""Deterministic parallel executor.

The reproduction must stay a pure function of (seed, config), yet the
measurement stages — banner scans over every host, keyword × ccTLD
queries, WhatWeb validation probes, per-URL field/lab fetch pairs —
are embarrassingly parallel. The executor reconciles the two:

- **Stable merges.** :meth:`Executor.stream` yields results in
  submission order regardless of completion order, and every other
  fan-out API (:meth:`Executor.map`, :meth:`Executor.run_campaigns`)
  is built on it, so no merge ever depends on which thread finished
  first.
- **Ordered side effects.** Simulation steps that mutate shared world
  state (a fetch through a stateful middlebox consumes RNG draws and
  feeds product queues) are wrapped in a :class:`Sequencer` turnstile:
  threads may overlap freely in their effect-free phases (modelled
  network waits, lab fetches, response comparison) but commit their
  mutating step strictly in submission order, so the world evolves
  exactly as it would under ``workers=1``.
- **Fault semantics.** Each task runs once. A task that raises is
  returned (or raised) as a :class:`TaskFailure` in its own slot
  without disturbing sibling results, and every failure is counted in
  :class:`~repro.exec.metrics.Metrics`. Retrying transient network
  faults is the study's job, not the executor's: see
  :class:`repro.exec.resilience.ResilientRunner`.

When at most one task can be in flight (``min(workers, window) == 1``)
tasks run inline on the calling thread. That is both the default and
the reference behaviour the parallel paths must reproduce byte for
byte.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.exec.metrics import Metrics

T = TypeVar("T")
R = TypeVar("R")

#: ``on_error`` modes for the fan-out APIs.
RAISE = "raise"
COLLECT = "collect"

#: Executor backends. Threads share the world and suit latency-bound
#: simulated I/O; processes suit CPU-bound work over plain picklable
#: data (signature matching at scan scale) and require module-level
#: task functions.
THREAD_BACKEND = "thread"
PROCESS_BACKEND = "process"
BACKENDS = (THREAD_BACKEND, PROCESS_BACKEND)


@dataclass
class StreamStats:
    """Observability for :meth:`Executor.stream` (backpressure proof).

    ``peak_inflight`` is the high-water mark of simultaneously
    outstanding tasks — the soak suite asserts it never exceeds the
    configured window.
    """

    submitted: int = 0
    completed: int = 0
    peak_inflight: int = 0


class TaskFailure(RuntimeError):
    """A task raised instead of returning.

    Carries enough context to report the failure without losing sibling
    results: the task label, its submission index, how many attempts
    ran, the underlying exception (also set as ``__cause__``), and —
    when the task belonged to a named campaign — which campaign, so a
    failure surfacing far from its fan-out is still attributable.

    ``transient`` marks failures of *infrastructure* rather than of the
    task itself — a pool worker process SIGKILLed out from under the
    task — where re-running the identical input elsewhere could well
    succeed. The executor never re-runs it; a caller that wants to
    retry can tell such failures apart by this flag.
    """

    def __init__(
        self,
        label: str,
        index: int,
        attempts: int,
        cause: BaseException,
        campaign: Optional[str] = None,
        transient: bool = False,
    ) -> None:
        super().__init__()
        self.label = label
        self.index = index
        self.attempts = attempts
        self.cause = cause
        self.campaign = campaign
        self.transient = transient
        self.__cause__ = cause

    def __str__(self) -> str:
        origin = f"task {self.label}[{self.index}]"
        if self.campaign:
            origin += f" (campaign {self.campaign!r})"
        return (
            f"{origin} failed after {self.attempts} attempt(s): "
            f"{self.cause!r}"
        )


class Sequencer:
    """A turnstile handing out turns in strict submission order.

    Threads call ``with sequencer.turn(index):`` around their mutating
    step; the block runs only once every lower index has completed its
    own block. Effect-free work before/after the block overlaps freely.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = start
        self._condition = threading.Condition()

    @contextmanager
    def turn(self, index: int) -> Iterator[None]:
        with self._condition:
            while self._next != index:
                self._condition.wait()
        try:
            yield
        finally:
            with self._condition:
                self._next = index + 1
                self._condition.notify_all()

    @property
    def completed(self) -> int:
        """How many turns have fully completed."""
        with self._condition:
            return self._next


@dataclass
class Campaign:
    """One independently runnable unit of campaign work.

    The paper's motivating case: a §4 confirmation campaign in one ISP.
    ``key`` names the campaign for merging and metrics; ``run`` does the
    work.
    """

    key: str
    run: Callable[[], Any]


@dataclass
class CampaignOutcome:
    """What one campaign produced (or how it failed)."""

    key: str
    result: Any = None
    error: Optional[TaskFailure] = None
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class Executor:
    """Thread- or process-pool fan-out with submission-ordered merges."""

    def __init__(
        self,
        workers: int = 1,
        *,
        backend: str = THREAD_BACKEND,
        metrics: Optional[Metrics] = None,
        name: str = "exec",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; one of {BACKENDS}"
            )
        self.workers = workers
        self.backend = backend
        self.name = name
        self.metrics = metrics if metrics is not None else Metrics()

    def _failure(
        self,
        label: str,
        index: int,
        exc: BaseException,
        transient: bool = False,
    ) -> TaskFailure:
        self.metrics.incr(f"{label}.failures")
        return TaskFailure(label, index, 1, exc, transient=transient)

    def stream(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        label: str = "task",
        window: Optional[int] = None,
        stats: Optional[StreamStats] = None,
    ) -> Iterator[Tuple[int, Any]]:
        """Submission-ordered streaming fan-out with bounded in-flight.

        ``items`` is consumed lazily and at most ``window`` tasks are
        outstanding (in flight + settled awaiting their turn) at any
        moment — backpressure for scans whose task list or result
        volume exceeds memory. Results are yielded strictly in
        submission order; a consumer writing them straight to a store
        segment therefore produces output identical to a sequential run
        at any worker count or backend.

        ``window`` defaults to ``max(2, 2 * workers)``. When
        ``min(workers, window) == 1`` each task runs inline on the
        calling thread. Failures arrive in their slot as
        :class:`TaskFailure` values, never raised, so one dead batch
        cannot tear down a million-host scan.

        The process backend has one failure of its own: a pool worker
        dying (SIGKILL, OOM) breaks the whole ``ProcessPoolExecutor``.
        The stream then replaces the pool, fails every task that was in
        flight as a *transient* :class:`TaskFailure` in its own slot,
        and resubmits a task whose submission hit the broken pool, since
        that task never ran.
        """
        if window is None:
            window = max(2, 2 * self.workers)
        if window < 1:
            raise ValueError("window must be >= 1")
        if stats is None:
            stats = StreamStats()
        tasks = enumerate(items)
        pool_size = min(self.workers, window)

        if pool_size == 1:
            for index, item in tasks:
                self.metrics.incr(f"{label}.tasks")
                stats.submitted += 1
                stats.peak_inflight = max(stats.peak_inflight, 1)
                try:
                    outcome: Any = fn(item)
                except Exception as exc:
                    outcome = self._failure(label, index, exc)
                stats.completed += 1
                yield index, outcome
            return

        def new_pool() -> Any:
            if self.backend == PROCESS_BACKEND:
                return ProcessPoolExecutor(max_workers=pool_size)
            return ThreadPoolExecutor(
                max_workers=pool_size,
                thread_name_prefix=f"{self.name}-{label}",
            )

        pool = new_pool()
        inflight: Dict[Future, int] = {}
        settled: Dict[int, Any] = {}
        next_yield = 0
        # Pulled off ``tasks`` but not yet accepted by a pool.
        pulled: Optional[Tuple[int, T]] = None
        try:
            while True:
                while next_yield in settled:
                    yield next_yield, settled.pop(next_yield)
                    next_yield += 1
                try:
                    while len(inflight) + len(settled) < window:
                        if pulled is None:
                            pulled = next(tasks, None)
                            if pulled is None:
                                break
                            self.metrics.incr(f"{label}.tasks")
                            stats.submitted += 1
                        index, item = pulled
                        inflight[pool.submit(fn, item)] = index
                        pulled = None
                        stats.peak_inflight = max(
                            stats.peak_inflight, len(inflight)
                        )
                    if not inflight:
                        return
                    done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = inflight[future]
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            raise
                        except Exception as exc:
                            outcome = self._failure(label, index, exc)
                        del inflight[future]
                        settled[index] = outcome
                        stats.completed += 1
                except BrokenProcessPool as exc:
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = new_pool()
                    for index in inflight.values():
                        settled[index] = self._failure(
                            label, index, exc, transient=True
                        )
                        stats.completed += 1
                    inflight.clear()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def map_unordered(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        label: str = "task",
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, outcome)`` for every item, all in flight at once.

        :meth:`stream` with a window as wide as the item list: up to
        ``workers`` tasks run at a time and nothing waits on the
        consumer. ``outcome`` is the task's return value or a
        :class:`TaskFailure`; the caller decides what to do with
        failures. Callers must not rely on the yield order.
        """
        pending = list(items)
        return self.stream(
            fn, pending, label=label, window=max(1, len(pending))
        )

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        label: str = "task",
        on_error: str = RAISE,
    ) -> List[Any]:
        """Apply ``fn`` to every item; results in submission order.

        ``on_error="raise"`` re-raises the lowest-index failure once all
        tasks have settled (sibling results are never corrupted by a
        failing task). ``on_error="collect"`` leaves each failure in its
        result slot as a :class:`TaskFailure` for the caller to inspect.
        """
        if on_error not in (RAISE, COLLECT):
            raise ValueError(f"unknown on_error mode {on_error!r}")
        pending = list(items)
        slots: List[Any] = [None] * len(pending)
        with self.metrics.timer(label):
            for index, outcome in self.map_unordered(fn, pending, label=label):
                slots[index] = outcome
        if on_error == RAISE:
            for outcome in slots:
                if isinstance(outcome, TaskFailure):
                    raise outcome
        return slots

    def run_campaigns(
        self,
        campaigns: Sequence[Campaign],
        *,
        label: str = "campaign",
    ) -> List[CampaignOutcome]:
        """Run independent campaigns concurrently; merge deterministically.

        Mirrors §6.1: campaigns in different ISPs overlap, wall clock is
        the max rather than the sum. Outcomes come back in submission
        order — never in completion order — so downstream reports are
        identical at any worker count. Failures are collected per
        campaign, not raised: one ISP's dead vantage must not abort the
        other ISPs' campaigns.
        """

        def run_one(campaign: Campaign) -> Tuple[Any, float]:
            started = time.perf_counter()
            result = campaign.run()
            return result, time.perf_counter() - started

        slots = self.map(run_one, campaigns, label=label, on_error=COLLECT)
        outcomes: List[CampaignOutcome] = []
        for campaign, outcome in zip(campaigns, slots):
            if isinstance(outcome, TaskFailure):
                outcome.campaign = campaign.key
                outcomes.append(CampaignOutcome(campaign.key, error=outcome))
            else:
                result, elapsed = outcome
                outcomes.append(
                    CampaignOutcome(
                        campaign.key, result=result, elapsed_seconds=elapsed
                    )
                )
        return outcomes
