"""Perf bench — the always-on monitoring control plane.

Three numbers, written to ``benchmarks/BENCH_monitor.json``:

1. **Scheduler overhead per round**: the control-plane work the monitor
   adds around each confirmation round (priority-heap pop/reinsert,
   interval bookkeeping, alert-engine fold) versus the cost of the bare
   ConfirmationStudy round it wraps. Budget: < 5%. The control plane
   must never be the reason a round is slow.
2. **Durability overhead**: a full :class:`MonitorService` run (journal
   + per-round snapshot + store commits, ``checkpoint_every=1``) versus
   the bare store-backed loop it wraps (``ConfirmationStudy.run``, one
   ``confirmation_epoch`` commit, then the interval). Recorded for
   trend-watching; dominated by fsync/pickle at the toy round sizes
   used here, so it is bounded loosely rather than by the 5% budget.
   The two loops alternate, ``PAIRS`` runs each, and each side's
   fastest run is compared: on a shared host noise only adds time.
3. **Kill-to-resumed recovery**: after a simulated kill mid-run, the
   wall-clock cost of resuming (journal replay + snapshot restore +
   re-running at most ``checkpoint_every`` rounds) must stay bounded.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro import build_scenario
from repro.analysis.paper_data import PAPER_TABLE3
from repro.core.confirm import ConfirmationStudy
from repro.core.pipeline import config_for_row
from repro.monitor import (
    AlertConfig,
    AlertEngine,
    MonitorConfig,
    MonitorService,
    MonitorTarget,
    PriorityScheduler,
    ScheduleConfig,
    SupervisorConfig,
)
from repro.store import ResultsStore, confirmation_epoch

BENCH_PATH = os.path.join(os.path.dirname(__file__), "BENCH_monitor.json")

#: Bare and monitored runs per side, alternating, for the durability
#: overhead: the minimum over this many is steady on a shared host.
PAIRS = 15
#: Recovery runs; the fastest one is compared with its bound.
REPEATS = 3
ROUNDS = 12

#: The control plane may add at most this fraction to a bare round.
SCHEDULER_BUDGET = 0.05
#: Resuming after a kill must complete well inside this bound.
RECOVERY_BUDGET_SECONDS = 10.0

_ROW = next(
    row for row in PAPER_TABLE3 if row.product == "McAfee SmartFilter"
)
_SCHEDULE = ScheduleConfig(
    base_interval_days=10.0, min_interval_days=2.0, max_interval_days=40.0
)


def _monitor_config() -> MonitorConfig:
    return MonitorConfig(
        schedule=_SCHEDULE,
        supervisor=SupervisorConfig(max_retries=1),
        alerts=AlertConfig(),
        checkpoint_every=1,
    )


def _timed_bare():
    """The bare durable path: a ConfirmationStudy loop that commits
    one round epoch per round."""
    config = config_for_row(_ROW)
    scenario = build_scenario()
    directory = Path(tempfile.mkdtemp(prefix="bench-monitor-bare-"))
    try:
        world = scenario.world
        started = time.perf_counter()
        study = ConfirmationStudy(
            world, scenario.products[config.product_name], scenario.hosting_asns[0]
        )
        store = ResultsStore(directory / "store")
        for index in range(ROUNDS):
            started_minutes = world.now.minutes
            result = study.run(config)
            store.commit(
                confirmation_epoch(
                    result,
                    world=world,
                    round_index=index,
                    started_minutes=started_minutes,
                )
            )
            if index + 1 < ROUNDS:
                world.advance_days(10)
        return time.perf_counter() - started
    finally:
        shutil.rmtree(directory)


def _timed_monitored():
    config = config_for_row(_ROW)
    directory = Path(tempfile.mkdtemp(prefix="bench-monitor-full-"))
    try:
        service = MonitorService(
            directory / "mon",
            directory / "store",
            scenario_factory=build_scenario,
            targets=[MonitorTarget(config)],
            config=_monitor_config(),
        )
        service.scenario  # build outside the clock: both paths pay it
        started = time.perf_counter()
        service.run(rounds=ROUNDS)
        return time.perf_counter() - started
    finally:
        shutil.rmtree(directory)


def _scheduler_seconds_per_round(reps: int = 200) -> float:
    """Pure control-plane cost of one round: heap pop, interval
    bookkeeping, alert fold. No I/O, no measurement."""
    started = time.perf_counter()
    for rep in range(reps):
        scheduler = PriorityScheduler(_SCHEDULE)
        scheduler.add(
            "pair",
            product="product",
            isp="isp",
            category="category",
            first_due_minutes=0,
        )
        engine = AlertEngine(AlertConfig())
        for index in range(ROUNDS):
            target = scheduler.pop()
            scheduler.record_success(
                target.key,
                confirmed=index % 3 == 0,  # include transition work
                now_minutes=target.next_due_minutes,
            )
            engine.observe(
                "product",
                "isp",
                confirmed=index % 3 == 0,
                round_index=index,
                at_minutes=target.next_due_minutes,
            )
    return (time.perf_counter() - started) / (reps * ROUNDS)


class _Kill(BaseException):
    pass


def _timed_recovery():
    """Kill the monitor mid-run (after the 7th journal record), then
    time the resumed run to completion."""
    config = config_for_row(_ROW)
    directory = Path(tempfile.mkdtemp(prefix="bench-monitor-recover-"))

    def kill(record):
        if record.seq >= 7:
            raise _Kill()

    try:
        victim = MonitorService(
            directory / "mon",
            directory / "store",
            scenario_factory=build_scenario,
            targets=[MonitorTarget(config)],
            config=_monitor_config(),
            after_write=kill,
        )
        try:
            victim.run(rounds=ROUNDS)
        except _Kill:
            pass
        survivor = MonitorService(
            directory / "mon",
            directory / "store",
            scenario_factory=build_scenario,
            targets=[MonitorTarget(config)],
            config=_monitor_config(),
        )
        started = time.perf_counter()
        summary = survivor.run(rounds=ROUNDS, resume=True)
        elapsed = time.perf_counter() - started
        assert summary.rounds_total == ROUNDS
        return elapsed
    finally:
        shutil.rmtree(directory)


def _alternating_runs():
    """(bare, monitored) wall times, one of each per pair in turn."""
    bare, monitored = [], []
    for _ in range(PAIRS):
        bare.append(_timed_bare())
        monitored.append(_timed_monitored())
    return bare, monitored


def test_monitor_overhead_and_recovery(benchmark):
    bare_runs, monitored_runs = benchmark.pedantic(
        _alternating_runs, rounds=1, iterations=1
    )
    bare_seconds = min(bare_runs)
    bare_round_seconds = bare_seconds / ROUNDS
    monitored_seconds = min(monitored_runs)

    scheduler_round_seconds = _scheduler_seconds_per_round()
    scheduler_overhead = scheduler_round_seconds / bare_round_seconds
    durable_overhead = monitored_seconds / bare_seconds - 1.0

    recovery_seconds = min(_timed_recovery() for _ in range(REPEATS))

    payload = {
        "bench": "monitor-control-plane",
        "rounds": ROUNDS,
        "pairs": PAIRS,
        "repeats": REPEATS,
        "bare_seconds": round(bare_seconds, 3),
        "monitored_seconds": round(monitored_seconds, 3),
        "scheduler_us_per_round": round(scheduler_round_seconds * 1e6, 1),
        "scheduler_overhead_fraction": round(scheduler_overhead, 5),
        "scheduler_budget": SCHEDULER_BUDGET,
        "durable_overhead_fraction": round(durable_overhead, 4),
        "recovery_seconds": round(recovery_seconds, 3),
        "recovery_budget_seconds": RECOVERY_BUDGET_SECONDS,
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(
        f"\nbare: {bare_seconds:.2f}s   monitored: {monitored_seconds:.2f}s   "
        f"scheduler {scheduler_round_seconds * 1e6:.0f}us/round "
        f"({scheduler_overhead:.2%} of a bare round, "
        f"budget {SCHEDULER_BUDGET:.0%})   "
        f"durability {durable_overhead:+.1%}   "
        f"recovery {recovery_seconds:.2f}s"
    )
    assert scheduler_overhead < SCHEDULER_BUDGET, (
        f"control plane cost {scheduler_overhead:.2%} of a bare round, "
        f"over the {SCHEDULER_BUDGET:.0%} budget"
    )
    # Durability I/O (fsync + snapshots) must stay in the same ballpark
    # as the measurement it protects, even at this bench's small round
    # size where fixed I/O costs weigh heaviest.
    assert durable_overhead < 1.0, (
        f"durable monitoring more than doubled the bare loop "
        f"({durable_overhead:+.1%})"
    )
    assert recovery_seconds < RECOVERY_BUDGET_SECONDS, (
        f"kill-to-resumed recovery took {recovery_seconds:.1f}s, over the "
        f"{RECOVERY_BUDGET_SECONDS:.0f}s bound"
    )
