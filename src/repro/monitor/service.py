"""The always-on monitoring control plane.

:class:`MonitorService` composes everything the earlier layers built —
the crash-safe journal and snapshots (PR 4), the fault taxonomy and
retry policy (PR 3), the content-addressed results store (PR 5) — into
a supervised service that turns one-shot §4 confirmations into a
continuously maintained timeline:

- The **scheduler** (:mod:`repro.monitor.schedule`) decides which
  (product, ISP) pair is probed next on the sim clock; transitions
  shorten a pair's interval, stability decays it.
- Each round runs under the **supervisor**
  (:mod:`repro.monitor.supervisor`): transient failures retry on a
  rebuilt world, a hung round is killed by the watchdog, and a round
  that exhausts its budget degrades to a **gap** in the timeline —
  never to a fabricated CONFIRMED/NOT_CONFIRMED state.
- Committed rounds feed the **alert engine**
  (:mod:`repro.monitor.alerts`) whose hysteresis/flap damping turns raw
  flips into a small number of durable alerts.
- Every round is journaled (the ``exec/journal`` CRC envelope) and the
  full service state is snapshotted at round boundaries, so a monitor
  SIGKILLed mid-round resumes exactly where it died and produces a
  timeline, transition set, and alert ledger byte-identical to an
  uninterrupted run.
- **Degraded mode**: when the results store turns unwritable, committed
  rounds buffer in memory (and in snapshots) and flush once the store
  recovers; the status surface reports DEGRADED instead of crashing.

Determinism notes: the measurement world is a pure function of (seed,
scenario config), fault decisions re-roll per attempt through
:func:`fault_attempt`, and nothing here reads the wall clock into any
durable record — which is what makes kill/resume byte-identity provable
rather than aspirational. The ``before_round`` hook runs right after
each round-start record; ``repro monitor run --round-delay`` uses it
for a wall-clock-only pause that widens the mid-round window for kill
tests and chaos soaks without touching results.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.confirm import ConfirmationConfig, ConfirmationStudy
from repro.exec.checkpoint import (
    SNAPSHOT_SCHEMA_VERSION,
    ListFrames,
    fingerprint,
    open_journal,
    write_snapshot,
)
from repro.exec.journal import JournalWriter, RecoveryReport
from repro.monitor.alerts import ALERTS_FILENAME, AlertConfig, AlertEngine, AlertLedger
from repro.monitor.schedule import PriorityScheduler, ScheduleConfig
from repro.monitor.supervisor import RoundSupervisor, SupervisorConfig
from repro.store import ResultsStore, StoreError, confirmation_epoch
from repro.world.clock import MINUTES_PER_DAY
from repro.world.faults import FaultPlan
from repro.world.scenario import Scenario

@dataclass(frozen=True)
class MonitorTarget:
    """One confirmation configuration under continuous monitoring."""

    config: ConfirmationConfig

    @property
    def key(self) -> str:
        return (
            f"{self.config.product_name}|{self.config.isp_name}"
            f"|{self.config.category_label}"
        )

    def identity(self) -> Dict[str, Any]:
        """JSON-safe identity contribution (enums flattened)."""
        document = dataclasses.asdict(self.config)
        document["content_class"] = self.config.content_class.value
        # Every target is first due at the monitor's start; the key
        # stays so journals written with it still resume.
        document["first_due_days"] = 0.0
        return document


@dataclass(frozen=True)
class MonitorConfig:
    """The control plane's policy bundle."""

    schedule: ScheduleConfig = ScheduleConfig()
    supervisor: SupervisorConfig = SupervisorConfig()
    alerts: AlertConfig = AlertConfig()
    #: Snapshot after every N completed rounds (always after the last).
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


@dataclass
class MonitorRunSummary:
    """What one ``run()`` invocation did (this process only)."""

    rounds_total: int
    rounds_this_run: int
    committed: int
    gaps: int
    alerts_recorded: int
    buffered: int
    quarantined: List[str] = field(default_factory=list)
    recovery: Optional[RecoveryReport] = None

    @property
    def degraded(self) -> bool:
        return bool(self.gaps or self.buffered or self.quarantined)

    def describe(self) -> List[str]:
        lines = [
            f"{self.rounds_this_run} round(s) this run "
            f"({self.rounds_total} total): {self.committed} committed, "
            f"{self.gaps} gap(s), {self.alerts_recorded} alert(s)"
        ]
        if self.buffered:
            lines.append(
                f"DEGRADED: {self.buffered} round epoch(s) buffered — "
                "store unwritable; they flush when it recovers"
            )
        for key in self.quarantined:
            lines.append(f"quarantined: {key}")
        return lines


class MonitorService:
    """Supervised, resumable monitoring over one target fleet.

    ``scenario_factory`` must deterministically rebuild the measurement
    world from scratch — it is called once at startup and again whenever
    a failed or hung round leaves the world suspect (the sim clock
    refuses to rewind, so recovery always means "fresh world + restore
    captured state", the same path crash resume takes).
    """

    def __init__(
        self,
        monitor_dir: Union[str, Path],
        store: Union[str, Path, ResultsStore],
        *,
        scenario_factory: Callable[[], Scenario],
        targets: Sequence[MonitorTarget],
        config: MonitorConfig = MonitorConfig(),
        fault_plan: Optional[FaultPlan] = None,
        before_round: Optional[Callable[["MonitorService", int, str], None]] = None,
        after_write: Optional[Callable[..., None]] = None,
    ) -> None:
        if not targets:
            raise ValueError("need at least one monitoring target")
        keys = [target.key for target in targets]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate monitoring targets: {sorted(keys)}")
        self.monitor_dir = Path(monitor_dir)
        self.monitor_dir.mkdir(parents=True, exist_ok=True)
        self.store = (
            store if isinstance(store, ResultsStore) else ResultsStore(Path(store))
        )
        self._factory = scenario_factory
        self._targets = list(targets)
        self._configs = {target.key: target.config for target in targets}
        self.config = config
        self.fault_plan = fault_plan
        self.before_round = before_round
        self.after_write = after_write

        self.scheduler = PriorityScheduler(config.schedule)
        self.alert_engine = AlertEngine(config.alerts)
        self.supervisor = RoundSupervisor(config.supervisor)
        self.timeline: List[Dict[str, Any]] = []
        self._buffer: List[Any] = []  # EpochData held while store is down
        self._round_index = 0
        self._rounds_by_target: Dict[str, int] = {}
        self._scenario: Optional[Scenario] = None
        self._baseline_domains: frozenset = frozenset()
        # The lists a snapshot only appends to, as the frames earlier
        # snapshots pickled: the campaign sites, each product's database
        # delta and decided submissions, and the timeline. An item is
        # final once a snapshot holds it: no round changes it later.
        self._site_frames = ListFrames()
        self._database_frames: Dict[str, ListFrames] = defaultdict(ListFrames)
        self._decided_frames: Dict[str, ListFrames] = defaultdict(ListFrames)
        self._timeline_frames = ListFrames()
        self.last_recovery: Optional[RecoveryReport] = None

    # ------------------------------------------------------------ scenario
    @property
    def scenario(self) -> Scenario:
        if self._scenario is None:
            self._scenario = self._build_scenario()
        return self._scenario

    def _build_scenario(self) -> Scenario:
        scenario = self._factory()
        if self.fault_plan is not None and self.fault_plan.active:
            scenario.world.install_faults(self.fault_plan)
        self._baseline_domains = frozenset(scenario.world.websites)
        return scenario

    # ------------------------------------------------------------- identity
    def identity(self) -> Dict[str, Any]:
        """Everything the monitor's durable output is a function of.

        Wall-clock-only knobs (watchdog deadline, checkpoint cadence,
        the round budget) are excluded for the same reason FullStudy
        excludes worker count: a resumed monitor may change them and
        must still produce byte-identical output.
        ``max_retries`` is included — fault plans re-roll per attempt,
        so the retry budget is output-visible under chaos.
        """
        return {
            "kind": "monitor",
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "seed": self.scenario.world.seed,
            "scenario": dataclasses.asdict(self.scenario.config),
            "targets": [target.identity() for target in self._targets],
            "schedule": dataclasses.asdict(self.config.schedule),
            "alerts": dataclasses.asdict(self.config.alerts),
            "max_retries": self.config.supervisor.max_retries,
            "fault_plan": (
                None if self.fault_plan is None else self.fault_plan.describe()
            ),
        }

    def config_fingerprint(self) -> str:
        return fingerprint(self.identity())

    # ----------------------------------------------------------- durability
    def _restore_measurement(self, state: Dict[str, Any]) -> None:
        """Fresh scenario + captured state = the pre-round world.

        Used between retry attempts and after a final round failure: the
        failed attempt may have half-mutated the old world (registered
        domains, advanced the clock), and the clock cannot rewind — so
        the old scenario is abandoned wholesale. Any watchdog-orphaned
        round thread keeps mutating objects nothing references anymore.
        """
        self._scenario = self._build_scenario()
        self._scenario.restore_state(state)

    def capture_state(self) -> Dict[str, Any]:
        """Full plain-data service state at a round boundary."""
        state = self.scenario.capture_state(self._baseline_domains)
        state.update(
            {
                "round_index": self._round_index,
                "rounds_by_target": dict(self._rounds_by_target),
                "timeline": list(self.timeline),
                "buffer": list(self._buffer),
                "scheduler": self.scheduler.capture_state(),
                "alerts": self.alert_engine.capture_state(),
            }
        )
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._site_frames.clear()
        self._database_frames.clear()
        self._decided_frames.clear()
        self._timeline_frames.clear()
        self._restore_measurement(state)
        self.scheduler.restore_state(state["scheduler"])
        self.alert_engine.restore_state(state["alerts"])
        self.timeline = [dict(entry) for entry in state["timeline"]]
        self._buffer = list(state["buffer"])
        self._round_index = state["round_index"]
        self._rounds_by_target = dict(state["rounds_by_target"])

    # ------------------------------------------------------------- rounds
    def _init_targets(self) -> None:
        start = self.scenario.world.now.minutes
        for target in self._targets:
            self.scheduler.add(
                target.key,
                product=target.config.product_name,
                isp=target.config.isp_name,
                category=target.config.category_label,
                first_due_minutes=start,
            )

    def _round_body(self, key: str) -> Any:
        scenario = self.scenario
        config = self._configs[key]
        product = scenario.products[config.product_name]
        # No inner resilience layer: any injected fault must escape the
        # round so the supervisor can retry it cleanly or record a gap —
        # a half-broken round must never quietly shape a result.
        study = ConfirmationStudy(
            scenario.world, product, scenario.hosting_asns[0]
        )
        return study.run(config)

    # ------------------------------------------------------ degraded mode
    def _try_commit(self, epoch: Any) -> Optional[str]:
        try:
            result = self.store.commit(epoch)
        except (StoreError, OSError):
            return None
        return result.epoch_id

    def _flush_buffer(self) -> List[str]:
        """Commit buffered epochs oldest-first; stop at the first failure."""
        flushed: List[str] = []
        while self._buffer:
            epoch_id = self._try_commit(self._buffer[0])
            if epoch_id is None:
                break
            self._buffer.pop(0)
            flushed.append(epoch_id)
        return flushed

    def _commit_or_buffer(
        self, epoch: Any
    ) -> Tuple[Optional[str], List[str]]:
        """(epoch id or None-if-buffered, ids flushed from the backlog).

        Order is preserved: while a backlog exists, new epochs join its
        tail rather than jumping the queue.
        """
        flushed = self._flush_buffer()
        if self._buffer:
            self._buffer.append(epoch)
            return None, flushed
        epoch_id = self._try_commit(epoch)
        if epoch_id is None:
            self._buffer.append(epoch)
            return None, flushed
        return epoch_id, flushed

    # ---------------------------------------------------------------- run
    def run(self, rounds: int, *, resume: bool = False) -> MonitorRunSummary:
        """Run until ``rounds`` total rounds exist (or all targets die).

        ``rounds`` is the cumulative budget: resuming a killed run with
        the same budget completes exactly the rounds the uninterrupted
        run would have, byte-identically. Fresh runs refuse an existing
        journal (pass ``resume=True``); resumes refuse a journal written
        by a different monitor identity.
        """
        if rounds < 1:
            raise ValueError("need at least one round")
        identity_fp = self.config_fingerprint()
        writer, snapshot, report = open_journal(
            self.monitor_dir,
            identity_fingerprint=identity_fp,
            resume=resume,
            after_write=self.after_write,
        )
        if snapshot is not None:
            self.restore_state(snapshot.state)
        else:
            self._init_targets()
        self.last_recovery = report

        summary = MonitorRunSummary(
            rounds_total=self._round_index,
            rounds_this_run=0,
            committed=0,
            gaps=0,
            alerts_recorded=0,
            buffered=0,
            recovery=report,
        )
        ledger = AlertLedger(self.monitor_dir / ALERTS_FILENAME)
        try:
            if writer.next_seq == 0:
                writer.append(
                    "begin",
                    {
                        "fingerprint": identity_fp,
                        "seed": self.scenario.world.seed,
                        "targets": [
                            self.scheduler.get(t.key).as_document()
                            for t in self._targets
                        ],
                    },
                )
            while self._round_index < rounds and self.scheduler.active():
                self._run_one_round(writer, ledger, summary)
                done = self._round_index
                if (
                    done % self.config.checkpoint_every == 0
                    or done >= rounds
                    or not self.scheduler.active()
                ):
                    self._snapshot(writer, identity_fp)
            flushed = self._flush_buffer()
            if flushed:
                writer.append(
                    "flush",
                    {"epochs": flushed, "buffered_now": len(self._buffer)},
                )
                self._snapshot(writer, identity_fp)
            writer.append(
                "final",
                {
                    "rounds": self._round_index,
                    "buffered_now": len(self._buffer),
                    "quarantined": [
                        t.key
                        for t in self.scheduler.targets()
                        if t.quarantined
                    ],
                },
            )
        finally:
            writer.close()
            ledger.close()
        summary.rounds_total = self._round_index
        summary.buffered = len(self._buffer)
        summary.quarantined = [
            t.key for t in self.scheduler.targets() if t.quarantined
        ]
        return summary

    def _snapshot(self, writer: JournalWriter, identity_fp: str) -> None:
        state = self.capture_state()
        world = state["world"]
        world["added_sites"] = self._site_frames.encode(world["added_sites"])
        for name, product in state["products"].items():
            product["database"] = self._database_frames[name].encode(
                product["database"]
            )
            portal = product["portal"]
            portal["decided"] = self._decided_frames[name].encode(
                portal["decided"]
            )
        state["timeline"] = self._timeline_frames.encode(state["timeline"])
        path = write_snapshot(
            self.monitor_dir,
            seq=self._round_index,
            identity_fingerprint=identity_fp,
            state=state,
        )
        writer.append(
            "snapshot",
            {
                "file": path.name,
                "round": self._round_index,
                "buffered_now": len(self._buffer),
            },
            durable=False,  # informational; resume scans the snapshot dir
        )

    def _run_one_round(
        self,
        writer: JournalWriter,
        ledger: AlertLedger,
        summary: MonitorRunSummary,
    ) -> None:
        target = self.scheduler.pop()
        assert target is not None  # guarded by scheduler.active()
        key = target.key
        world = self.scenario.world
        if target.next_due_minutes > world.now.minutes:
            world.advance_days(
                (target.next_due_minutes - world.now.minutes) / MINUTES_PER_DAY
            )
        started_minutes = world.now.minutes
        round_index = self._round_index
        # Group commit: the round-start marker is flushed but not
        # fsynced on its own — losing it in a crash only means resume
        # re-runs the in-flight round, which it would do anyway. The
        # round-commit/round-gap fsync persists both records.
        writer.append(
            "round-start",
            {
                "round": round_index,
                "target": key,
                "started_minutes": started_minutes,
            },
            durable=False,
        )
        if self.before_round is not None:
            self.before_round(self, round_index, key)
        base = self.scenario.capture_state(self._baseline_domains)
        outcome = self.supervisor.run(
            lambda: self._round_body(key),
            reset=lambda: self._restore_measurement(base),
        )
        if outcome.ok:
            self._account_committed(
                writer, ledger, summary, key, started_minutes, outcome
            )
        else:
            self._account_gap(writer, summary, key, started_minutes, outcome)
        self._round_index += 1
        summary.rounds_this_run += 1

    def _account_committed(
        self,
        writer: JournalWriter,
        ledger: AlertLedger,
        summary: MonitorRunSummary,
        key: str,
        started_minutes: int,
        outcome: Any,
    ) -> None:
        result = outcome.value
        confirmed = bool(result.confirmed)
        world = self.scenario.world
        epoch = confirmation_epoch(
            result,
            world=world,
            round_index=self._rounds_by_target.get(key, 0),
            started_minutes=started_minutes,
        )
        epoch_id, flushed = self._commit_or_buffer(epoch)
        if flushed:
            writer.append(
                "flush",
                {"epochs": flushed, "buffered_now": len(self._buffer)},
            )
        self._rounds_by_target[key] = self._rounds_by_target.get(key, 0) + 1
        transitioned = self.scheduler.record_success(
            key, confirmed=confirmed, now_minutes=world.now.minutes
        )
        config = self._configs[key]
        fired = self.alert_engine.observe(
            config.product_name,
            config.isp_name,
            confirmed=confirmed,
            round_index=self._round_index,
            at_minutes=world.now.minutes,
        )
        for alert in fired:
            if ledger.record(alert):
                summary.alerts_recorded += 1
        state = "confirmed" if confirmed else "not_confirmed"
        self.timeline.append(
            {
                "round": self._round_index,
                "target": key,
                "started_minutes": started_minutes,
                "state": state,
                "epoch": epoch_id,
            }
        )
        summary.committed += 1
        writer.append(
            "round-commit",
            {
                "round": self._round_index,
                "target": key,
                "state": state,
                "epoch": epoch_id,
                "buffered": epoch_id is None,
                "buffered_now": len(self._buffer),
                "transitioned": transitioned,
                "alerts": [alert.to_document() for alert in fired],
                "attempts": outcome.attempts,
                "target_state": self.scheduler.get(key).as_document(),
            },
        )

    def _account_gap(
        self,
        writer: JournalWriter,
        summary: MonitorRunSummary,
        key: str,
        started_minutes: int,
        outcome: Any,
    ) -> None:
        # The supervisor already reset the world to its pre-round state:
        # the failed round leaves no trace in the measurement world, and
        # the timeline records an explicit gap — the §4 invariant that a
        # broken measurement is missing data, never a verdict.
        world = self.scenario.world
        dead = self.scheduler.record_failure(
            key, now_minutes=world.now.minutes, error=outcome.error or "failed"
        )
        self.timeline.append(
            {
                "round": self._round_index,
                "target": key,
                "started_minutes": started_minutes,
                "state": "gap",
                "error": outcome.error,
            }
        )
        summary.gaps += 1
        writer.append(
            "round-gap",
            {
                "round": self._round_index,
                "target": key,
                "error": outcome.error,
                "attempts": outcome.attempts,
                "transient": outcome.transient,
                "watchdog_expired": outcome.watchdog_expired,
                "buffered_now": len(self._buffer),
                "target_state": self.scheduler.get(key).as_document(),
            },
        )
        if dead is not None:
            writer.append(
                "quarantine",
                {
                    "target": key,
                    "consecutive_failures": dead.consecutive_failures,
                    "gap_rounds": dead.gap_rounds,
                    "error": dead.error,
                },
            )
