"""repro.query — filter/diff over the longitudinal store.

The read side of :mod:`repro.store`: typed record filters, canonical
table views, and the APPEARED / WITHDRAWN / PERSISTED epoch diffs that
the serving API is built on and that read the transitions between the
round epochs of a :class:`repro.monitor.MonitorService`.
"""

from repro.query.diff import (
    ChurnReport,
    EpochDiff,
    PairTransition,
    TransitionKind,
    diff_epochs,
    installation_churn,
    pair_states,
    sequence_transitions,
)
from repro.query.engine import QueryEngine, RecordFilter
from repro.query.views import TABLE_NAMES, available_tables, render_epoch_table

__all__ = [
    "ChurnReport",
    "EpochDiff",
    "PairTransition",
    "QueryEngine",
    "RecordFilter",
    "TABLE_NAMES",
    "TransitionKind",
    "available_tables",
    "diff_epochs",
    "installation_churn",
    "pair_states",
    "render_epoch_table",
    "sequence_transitions",
]
