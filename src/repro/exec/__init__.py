"""repro.exec — deterministic parallel execution substrate.

The paper's scalability argument (§6.1/§7) is that confirmation
campaigns in different ISPs run *concurrently*: wall clock is the max of
the per-ISP costs, not the sum (:mod:`repro.core.scale` already models
this). This package makes that concurrency real for the reproduction
while keeping its defining property — every run is a pure function of
(seed, config) — intact:

- :mod:`repro.exec.executor` — a thread- or process-pool executor whose
  fan-out APIs merge results in a stable, submission-ordered
  (seed-independent) way, plus a :class:`Sequencer` turnstile that
  forces side-effectful simulation steps to commit in submission order
  so parallel runs stay byte-identical to sequential ones. Every stage
  fans out through :meth:`Executor.map` at any worker count, which
  runs inline at one worker and, once all tasks settle, raises the
  lowest-index task's own exception; :meth:`Executor.stream` hands
  each failed task back as a :class:`TaskFailure` in its own slot.
  Retries of transient faults live one layer up, in
  :mod:`repro.exec.resilience`.
- :mod:`repro.exec.metrics` — counters, timers and per-stage summaries
  surfaced through the CLI and :mod:`repro.analysis.report`.
- :mod:`repro.exec.journal` / :mod:`repro.exec.checkpoint` — the
  durability layer: every crash-safe write in the repository (the
  CRC-protected write-ahead journal and the other framed logs, atomic
  file replacement, staged-directory publication) plus atomic state
  snapshots at study-unit boundaries, so multi-day campaigns survive
  process death and resume byte-identically (CLI ``--journal`` /
  ``--resume``).
"""

from repro.exec.checkpoint import Snapshot, load_latest_snapshot, write_snapshot
from repro.exec.journal import JournalRecord, JournalWriter, RecoveryReport
from repro.exec.executor import (
    BACKENDS,
    Executor,
    PROCESS_BACKEND,
    Sequencer,
    StreamStats,
    TaskFailure,
    THREAD_BACKEND,
)
from repro.exec.metrics import Metrics, TimerStats

__all__ = [
    "BACKENDS",
    "Executor",
    "PROCESS_BACKEND",
    "StreamStats",
    "THREAD_BACKEND",
    "JournalRecord",
    "JournalWriter",
    "Metrics",
    "RecoveryReport",
    "Sequencer",
    "Snapshot",
    "TaskFailure",
    "TimerStats",
    "load_latest_snapshot",
    "write_snapshot",
]
