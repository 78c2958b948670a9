"""Longitudinal diffs between stored epochs.

Two epochs of the same study are two measurements of the same network
at different times; the diff is the paper's temporal story made
explicit — a product *appearing* in an ISP (Netsweeper spreading to new
deployments), *persisting* (SmartFilter re-confirmed in Etisalat in
9/2012 and 4/2013, §4.3), or being *withdrawn* (Websense cutting off
Yemen, Blue Coat dropping Syrian update support, §2.2). Installation
churn reproduces Figure 1's repeated-scan framing: which filter IPs
appeared or vanished between scans.

:func:`sequence_transitions` is the single transition rule: the epoch
diff applies it to each (product, ISP) pair, and the rounds a
:class:`repro.monitor.MonitorService` commits are epochs like any other,
so their transitions are read the same way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.store import EpochManifest, ResultsStore


class TransitionKind(enum.Enum):
    """What happened to a (product, ISP) pair between two epochs."""

    APPEARED = "appeared"  # not confirmed -> confirmed
    WITHDRAWN = "withdrawn"  # confirmed -> not confirmed
    PERSISTED = "persisted"  # confirmed in both epochs


def sequence_transitions(states: Sequence[bool]) -> List[Tuple[int, TransitionKind]]:
    """Transitions along a confirmed/not-confirmed timeline.

    Returns ``(index, kind)`` pairs where ``index`` is the position of
    the *later* state. Consecutive confirmations yield PERSISTED;
    not→not yields nothing (absence of evidence both times says nothing
    about change).
    """
    found: List[Tuple[int, TransitionKind]] = []
    for index in range(1, len(states)):
        earlier, later = states[index - 1], states[index]
        if earlier and later:
            found.append((index, TransitionKind.PERSISTED))
        elif later and not earlier:
            found.append((index, TransitionKind.APPEARED))
        elif earlier and not later:
            found.append((index, TransitionKind.WITHDRAWN))
    return found


@dataclass(frozen=True)
class PairTransition:
    """One (product, ISP) pair's transition between two epochs."""

    product: str
    isp: str
    kind: TransitionKind

    def to_document(self) -> Dict[str, Any]:
        return {
            "product": self.product,
            "isp": self.isp,
            "transition": self.kind.value,
        }


@dataclass(frozen=True)
class ChurnReport:
    """Installation churn between two scan epochs (Figure 1 framing)."""

    appeared: Tuple[Dict[str, Any], ...]
    withdrawn: Tuple[Dict[str, Any], ...]
    persisted_count: int

    def to_document(self) -> Dict[str, Any]:
        return {
            "appeared": list(self.appeared),
            "withdrawn": list(self.withdrawn),
            "appeared_count": len(self.appeared),
            "withdrawn_count": len(self.withdrawn),
            "persisted_count": self.persisted_count,
        }


@dataclass
class EpochDiff:
    """Everything that changed between an older and a newer epoch."""

    old: EpochManifest
    new: EpochManifest
    transitions: List[PairTransition] = field(default_factory=list)
    churn: Optional[ChurnReport] = None

    def to_document(self) -> Dict[str, Any]:
        return {
            "old": self.old.epoch_id,
            "new": self.new.epoch_id,
            "window": {
                "old": {
                    "start_minutes": self.old.window_start,
                    "end_minutes": self.old.window_end,
                },
                "new": {
                    "start_minutes": self.new.window_start,
                    "end_minutes": self.new.window_end,
                },
            },
            "transitions": [t.to_document() for t in self.transitions],
            "churn": None if self.churn is None else self.churn.to_document(),
        }

    def by_kind(self, kind: TransitionKind) -> List[PairTransition]:
        return [t for t in self.transitions if t.kind is kind]

    def summary_lines(self) -> List[str]:
        lines = [f"diff {self.old.short_id} -> {self.new.short_id}"]
        for kind in TransitionKind:
            pairs = self.by_kind(kind)
            if not pairs:
                continue
            rendered = ", ".join(f"{t.product} in {t.isp}" for t in pairs)
            lines.append(f"  {kind.value:10s} {rendered}")
        if not self.transitions:
            lines.append("  no (product, isp) transitions")
        if self.churn is not None:
            lines.append(
                f"  churn: {len(self.churn.appeared)} installation(s) "
                f"appeared, {len(self.churn.withdrawn)} withdrawn, "
                f"{self.churn.persisted_count} persisted"
            )
        return lines


def pair_states(rows: Sequence[Dict[str, Any]]) -> Dict[Tuple[str, str], bool]:
    """(product, isp) → confirmed, from stored confirmation rows.

    A pair measured more than once in one epoch (several Table 3
    categories) counts as confirmed if any measurement confirmed —
    matching :meth:`repro.core.pipeline.StudyReport.confirmed_pairs`.
    """
    states: Dict[Tuple[str, str], bool] = {}
    for row in rows:
        key = (row["product"], row["isp"])
        states[key] = states.get(key, False) or bool(row["confirmed"])
    return states


def _installation_keys(
    rows: Sequence[Dict[str, Any]]
) -> Dict[Tuple[str, str], Dict[str, Any]]:
    return {
        (row["ip"], row["product"]): row
        for row in rows
    }


def installation_churn(
    old_rows: Sequence[Dict[str, Any]], new_rows: Sequence[Dict[str, Any]]
) -> ChurnReport:
    """IPs/installations appearing and disappearing between scans."""
    old_keys = _installation_keys(old_rows)
    new_keys = _installation_keys(new_rows)

    def _entry(row: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "ip": row["ip"],
            "product": row["product"],
            "country": row.get("country"),
            "asn": row.get("asn"),
        }

    appeared = tuple(
        _entry(new_keys[key])
        for key in sorted(set(new_keys) - set(old_keys))
    )
    withdrawn = tuple(
        _entry(old_keys[key])
        for key in sorted(set(old_keys) - set(new_keys))
    )
    persisted = len(set(old_keys) & set(new_keys))
    return ChurnReport(
        appeared=appeared, withdrawn=withdrawn, persisted_count=persisted
    )


def diff_epochs(store: ResultsStore, old_ref: str, new_ref: str) -> EpochDiff:
    """The longitudinal diff between two committed epochs."""
    old_id = store.resolve(old_ref)
    new_id = store.resolve(new_ref)
    old_manifest = store.manifest(old_id)
    new_manifest = store.manifest(new_id)
    old_states = pair_states(store.records(old_id, "confirmations"))
    new_states = pair_states(store.records(new_id, "confirmations"))
    transitions: List[PairTransition] = []
    for key in sorted(set(old_states) | set(new_states)):
        earlier = old_states.get(key, False)
        later = new_states.get(key, False)
        for _index, kind in sequence_transitions([earlier, later]):
            transitions.append(PairTransition(key[0], key[1], kind))
    churn: Optional[ChurnReport] = None
    has_scans = (
        "installations" in old_manifest.segments
        or "installations" in new_manifest.segments
    )
    if has_scans:
        churn = installation_churn(
            store.records(old_id, "installations"),
            store.records(new_id, "installations"),
        )
    return EpochDiff(
        old=old_manifest,
        new=new_manifest,
        transitions=transitions,
        churn=churn,
    )
