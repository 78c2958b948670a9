"""Longitudinal monitoring of product-use confirmations.

The paper is explicit that one-shot findings are not enough: §4.3
re-confirms SmartFilter in Etisalat in 9/2012 *and* 4/2013, and the
policy arc it cares about is temporal — Websense cutting off Yemen in
2009 (§2.2), Blue Coat withdrawing Syrian update support (§2.2). This
module turns the §4 methodology into a repeatable monitor: run the same
confirmation at intervals and detect transitions — a product appearing,
persisting, or going stale after a vendor withdraws update support.

Rounds are not process-lifetime state: each round commits an
immutable epoch to a results store (one confirmation record, indexed
by product/ISP/country), and the transition logic itself lives in
:mod:`repro.query.diff` — the same APPEARED/WITHDRAWN/PERSISTED rule
the epoch diff applies — so a monitor restarted months later recovers
its full timeline from the store instead of starting blind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.core.confirm import ConfirmationConfig, ConfirmationResult, ConfirmationStudy
from repro.products.base import UrlFilterProduct
from repro.query.diff import TransitionKind as EpochTransitionKind
from repro.query.diff import sequence_transitions, stored_states
from repro.store import ResultsStore, confirmation_epoch
from repro.world.clock import SimTime
from repro.world.world import World


class UsageState(enum.Enum):
    """What one monitoring round concluded."""

    CONFIRMED = "confirmed"  # submissions flipped to blocked
    NOT_CONFIRMED = "not_confirmed"  # nothing flipped


class TransitionKind(enum.Enum):
    APPEARED = "appeared"  # not confirmed -> confirmed
    WITHDRAWN = "withdrawn"  # confirmed -> not confirmed


#: The monitor's change-only view of the store-level transition kinds
#: (PERSISTED is longitudinal *stability*, not a transition).
_KIND_FROM_EPOCH = {
    EpochTransitionKind.APPEARED: TransitionKind.APPEARED,
    EpochTransitionKind.WITHDRAWN: TransitionKind.WITHDRAWN,
}


@dataclass
class MonitoringRound:
    started_at: SimTime
    result: ConfirmationResult

    @property
    def state(self) -> UsageState:
        return (
            UsageState.CONFIRMED
            if self.result.confirmed
            else UsageState.NOT_CONFIRMED
        )


@dataclass
class Transition:
    kind: TransitionKind
    between: SimTime
    and_: SimTime


def _change_transitions(
    timeline: List[Tuple[SimTime, bool]]
) -> List[Transition]:
    """APPEARED/WITHDRAWN transitions along a (time, confirmed) series."""
    states = [confirmed for _at, confirmed in timeline]
    found: List[Transition] = []
    for index, kind in sequence_transitions(states):
        mapped = _KIND_FROM_EPOCH.get(kind)
        if mapped is None:
            continue  # PERSISTED: no change to report
        found.append(
            Transition(mapped, timeline[index - 1][0], timeline[index][0])
        )
    return found


@dataclass
class MonitoringSeries:
    """The timeline one monitor produced."""

    product_name: str
    isp_name: str
    rounds: List[MonitoringRound] = field(default_factory=list)

    def states(self) -> List[UsageState]:
        return [round_.state for round_ in self.rounds]

    def timeline(self) -> List[Tuple[SimTime, bool]]:
        return [
            (round_.started_at, round_.state is UsageState.CONFIRMED)
            for round_ in self.rounds
        ]

    def transitions(self) -> List[Transition]:
        return _change_transitions(self.timeline())

    def ever_confirmed(self) -> bool:
        return any(r.state is UsageState.CONFIRMED for r in self.rounds)

    def currently_confirmed(self) -> Optional[bool]:
        if not self.rounds:
            return None
        return self.rounds[-1].state is UsageState.CONFIRMED


def stored_transitions(
    store: ResultsStore, product_name: str, isp_name: str
) -> List[Transition]:
    """The transition timeline recovered from a results store.

    Reads every committed epoch mentioning this (product, ISP) pair —
    monitoring-round epochs and full-study epochs alike — through the
    store's indexes, and applies the same transition rule the in-memory
    series uses.
    """
    timeline = [
        (SimTime(minutes), confirmed)
        for minutes, confirmed in stored_states(store, product_name, isp_name)
    ]
    return _change_transitions(timeline)


class LongitudinalMonitor:
    """Re-runs one confirmation configuration at fixed intervals.

    Each round registers fresh domains (the §4.4 caveat: previously
    accessed sites may already be queued/categorized), so rounds are
    independent measurements of the *current* deployment state. Every
    round is also committed to ``store`` as one durable epoch, and
    :func:`stored_transitions` can rebuild the timeline after restart.
    """

    def __init__(
        self,
        world: World,
        product: UrlFilterProduct,
        hosting_asn: int,
        config: ConfirmationConfig,
        *,
        store: Union[ResultsStore, str],
    ) -> None:
        self._study = ConfirmationStudy(world, product, hosting_asn)
        self._world = world
        self._config = config
        self.store = (
            store if isinstance(store, ResultsStore) else ResultsStore(store)
        )
        self.series = MonitoringSeries(
            product_name=config.product_name, isp_name=config.isp_name
        )

    def run_round(self) -> MonitoringRound:
        """One monitoring round at the current simulated time."""
        started = self._world.now
        result = self._study.run(self._config)
        round_ = MonitoringRound(started_at=started, result=result)
        self.store.commit(
            confirmation_epoch(
                result,
                world=self._world,
                round_index=len(self.series.rounds),
                started_minutes=started.minutes,
            )
        )
        self.series.rounds.append(round_)
        return round_

    def run(self, rounds: int, interval_days: float) -> MonitoringSeries:
        """``rounds`` measurements spaced ``interval_days`` apart."""
        if rounds < 1:
            raise ValueError("need at least one round")
        if interval_days < 0:
            raise ValueError("interval must be non-negative")
        for index in range(rounds):
            self.run_round()
            if index + 1 < rounds:
                self._world.advance_days(interval_days)
        return self.series
