"""Always-on monitoring control plane.

Composes the scheduler (:mod:`repro.monitor.schedule`), round
supervisor (:mod:`repro.monitor.supervisor`), alert engine
(:mod:`repro.monitor.alerts`), and the crash-safe service loop
(:mod:`repro.monitor.service`) into a supervised fleet that keeps the
paper's §4.3 longitudinal timelines alive across process death, hung
rounds, injected faults, and store outages. Status folding for the CLI
and serve endpoints lives in :mod:`repro.monitor.status`.
"""

from repro.monitor.alerts import (
    ALERTS_FILENAME,
    Alert,
    AlertConfig,
    AlertEngine,
    AlertKind,
    AlertLedger,
    read_alerts,
)
from repro.monitor.schedule import (
    DeadLetter,
    PriorityScheduler,
    ScheduleConfig,
    ScheduledTarget,
)
from repro.monitor.service import (
    MonitorConfig,
    MonitorRunSummary,
    MonitorService,
    MonitorTarget,
)
from repro.monitor.status import describe_status, describe_targets, read_status
from repro.monitor.supervisor import (
    RoundOutcome,
    RoundSupervisor,
    SupervisorConfig,
    WatchdogExpired,
)

__all__ = [
    "ALERTS_FILENAME",
    "Alert",
    "AlertConfig",
    "AlertEngine",
    "AlertKind",
    "AlertLedger",
    "DeadLetter",
    "MonitorConfig",
    "MonitorRunSummary",
    "MonitorService",
    "MonitorTarget",
    "PriorityScheduler",
    "RoundOutcome",
    "RoundSupervisor",
    "ScheduleConfig",
    "ScheduledTarget",
    "SupervisorConfig",
    "WatchdogExpired",
    "describe_status",
    "describe_targets",
    "read_alerts",
    "read_status",
]
