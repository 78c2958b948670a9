"""The measurement client (§4.1).

"Tests of Web page accessibility are performed using a measurement
client that accesses a specified list of URLs in the 'field' ... This
client software also triggers the same set of URLs to be accessed from a
server in our lab at the University of Toronto ... The results of the
Web page accesses in the field and lab are compared."
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Dict, Iterable, List, Optional

from repro.exec.executor import Executor, Sequencer
from repro.exec.resilience import ResilientRunner
from repro.measure.classifiers.fusion import VerdictEngine
from repro.measure.verdict import Comparison, Verdict
from repro.net.fetch import FetchOutcome, FetchResult
from repro.net.url import Url
from repro.world.clock import SimTime
from repro.world.world import Vantage


@dataclass
class UrlTest:
    """One URL measured from field and lab simultaneously."""

    url: Url
    field_result: FetchResult
    lab_result: FetchResult
    comparison: Comparison
    measured_at: SimTime

    @property
    def blocked(self) -> bool:
        return self.comparison.blocked

    @property
    def accessible(self) -> bool:
        return self.comparison.verdict is Verdict.ACCESSIBLE

    @property
    def insufficient(self) -> bool:
        """True when the probe itself failed: no accessibility claim."""
        return self.comparison.verdict is Verdict.INSUFFICIENT

    @property
    def vendor(self) -> Optional[str]:
        return self.comparison.vendor

    @property
    def confidence(self) -> float:
        """The fused confidence behind this verdict (0.0 = unmeasured)."""
        return self.comparison.confidence


@dataclass
class MeasurementRun:
    """The results of testing one URL list from one vantage."""

    vantage_label: str
    tests: List[UrlTest] = field(default_factory=list)

    def blocked_tests(self) -> List[UrlTest]:
        return [t for t in self.tests if t.blocked]

    def accessible_tests(self) -> List[UrlTest]:
        return [t for t in self.tests if t.accessible]

    def blocked_count(self) -> int:
        return len(self.blocked_tests())

    def vendors_seen(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for test in self.blocked_tests():
            vendor = test.vendor
            if vendor:
                counts[vendor] = counts.get(vendor, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.tests)


class MeasurementClient:
    """Dual field/lab fetcher producing per-URL verdicts.

    ``link_latency`` models the real network round trip a field fetch
    costs (the dominant wall-clock term of an in-country campaign); the
    simulated fetch itself is effectively instant. ``executor`` enables
    per-URL fan-out: the latency waits overlap across workers while a
    :class:`~repro.exec.executor.Sequencer` commits the field fetches —
    the only steps that can touch stateful middleboxes — in strict
    submission order, so results are byte-identical to a sequential run.
    """

    def __init__(
        self,
        field_vantage: Vantage,
        lab_vantage: Vantage,
        *,
        engine: Optional[VerdictEngine] = None,
        executor: Optional[Executor] = None,
        link_latency: float = 0.0,
        resilience: Optional[ResilientRunner] = None,
        stage: str = "measure",
        endpoint: Optional[str] = None,
    ) -> None:
        if field_vantage.is_lab:
            raise ValueError("field vantage must sit inside a measured ISP")
        if not lab_vantage.is_lab:
            raise ValueError("lab vantage must be the unfiltered lab network")
        if link_latency < 0:
            raise ValueError("link_latency must be >= 0")
        self._field = field_vantage
        self._lab = lab_vantage
        self._engine = engine or VerdictEngine()
        self._executor = executor
        self._link_latency = link_latency
        self._resilience = resilience
        self._stage = stage
        self._endpoint = endpoint

    @property
    def field_vantage(self) -> Vantage:
        return self._field

    def _wait_for_link(self) -> None:
        """Pay the field round-trip cost (a real wall-clock wait)."""
        if self._link_latency:
            time.sleep(self._link_latency)

    def _measure(
        self, url: Url, turn: ContextManager[None] = nullcontext()
    ) -> UrlTest:
        """One field+lab exchange and its comparison (no resilience).

        Only the field fetch runs inside ``turn``: the lab fetch and the
        comparison are effect-free.
        """
        with turn:
            field_result = self._field.fetch(url)
        lab_result = self._lab.fetch(url)
        comparison = self._engine.compare(field_result, lab_result)
        return UrlTest(
            url,
            field_result,
            lab_result,
            comparison,
            self._field.world.now,
        )

    def _quarantined_test(self, url: Url, note: str) -> UrlTest:
        """The explicit "we could not measure this" record.

        Carries :data:`FetchOutcome.INFRA_FAILURE` results and an
        :data:`Verdict.INSUFFICIENT` comparison so downstream tallies can
        count the gap without ever mistaking it for blocking (or for
        accessibility).
        """
        placeholder = FetchResult.failure(url, FetchOutcome.INFRA_FAILURE, note)
        return UrlTest(
            url,
            placeholder,
            placeholder,
            Comparison(Verdict.INSUFFICIENT, note=note, confidence=0.0),
            self._field.world.now,
        )

    def _resilient_measure(self, url: Url) -> UrlTest:
        """Measure under the resilience policy; never raises for faults."""
        assert self._resilience is not None
        outcome = self._resilience.call(
            lambda: self._measure(url),
            stage=self._stage,
            key=str(url),
            endpoint=self._endpoint,
        )
        if outcome.ok:
            return outcome.value
        record = outcome.quarantine
        note = str(record) if record is not None else "measurement failed"
        return self._quarantined_test(url, note)

    def test_url(
        self, url: Url, turn: ContextManager[None] = nullcontext()
    ) -> UrlTest:
        """Fetch one URL from both vantages and compare.

        ``turn`` (a :meth:`Sequencer.turn`) wraps the world-mutating
        field fetch. Under a resilience policy it wraps the whole retry
        loop instead: retries and breaker transitions must observe
        submission order or fault decisions would depend on timing.
        """
        self._wait_for_link()
        if self._resilience is None:
            return self._measure(url, turn)
        with turn:
            return self._resilient_measure(url)

    def run_list(self, urls: Iterable[Url]) -> MeasurementRun:
        """Test a URL list; §4.1 keeps these short for manual analysis.

        The network waits overlap across the executor's workers while
        a :class:`Sequencer` commits the field fetches in submission
        order, so the run is byte-identical at any worker count.
        """
        sequencer = Sequencer()
        run = MeasurementRun(self._field.location)
        run.tests = (self._executor or Executor()).map(
            lambda job: self.test_url(job[1], sequencer.turn(job[0])),
            enumerate(urls),
            label="measure",
        )
        return run
