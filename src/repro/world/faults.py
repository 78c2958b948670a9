"""Deterministic fault injection for the simulated network (chaos world).

The paper's confirmation methodology was built around flaky
infrastructure: in-country vantage points churn, test domains
intermittently fail to resolve, and links drop mid-campaign (§4, §6).
The baseline simulation is perfectly reliable, so robustness code would
otherwise go untested. A :class:`FaultPlan` injects exactly those
failure modes — DNS timeouts and NXDOMAIN flaps, connection resets and
timeouts, truncated or garbled scan banners, latency spikes, and whole
vantage-point outages scheduled on the sim clock — while staying a pure
function of ``(plan seed, operation, key, attempt)``.

Two properties make the injection safe for the determinism contract:

- **Statelessness.** Every decision is a hash of the plan seed, the
  operation kind, a stable key (vantage label + hostname), and the
  caller's retry attempt — never of call order. Worker counts and thread
  scheduling therefore cannot change which operations fail.
- **Typed escape.** Injected failures are raised as ``Injected*``
  subclasses of the :mod:`repro.net.errors` hierarchy, *outside* the
  fetch-outcome model. A fault is infrastructure noise observed by the
  measuring client software, not a censorship signal: it must surface to
  the retry layer as an exception, never reach the field/lab comparator
  as a ``FetchOutcome`` where it could masquerade as blocking.

The default :data:`NO_FAULTS` plan is inert and adds one branch to the
hot paths, keeping the fault-free baseline byte-identical.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.net.errors import (
    ConnectionReset,
    ConnectionTimeout,
    DnsTimeout,
    NetError,
    NxDomain,
)
from repro.world.clock import SimTime
from repro.world.rng import derive_seed


class InjectedFault(Exception):
    """Marker mixin: this error is injected infrastructure noise.

    Lets the world's fetch loop distinguish an injected NXDOMAIN flap
    (which must escape as an exception for the resilience layer) from a
    genuine simulated NXDOMAIN (which becomes a ``DNS_FAILURE`` fetch
    outcome and may legitimately mean DNS tampering).
    """


class InjectedDnsTimeout(DnsTimeout, InjectedFault):
    """A resolver query that the fault plan made time out."""


class InjectedNxDomain(NxDomain, InjectedFault):
    """A spurious NXDOMAIN from a flapping resolver (permanent class:
    the retry layer must quarantine rather than retry it)."""


class InjectedConnectionReset(ConnectionReset, InjectedFault):
    """A TCP reset injected by the fault plan (not by a middlebox)."""


class InjectedConnectionTimeout(ConnectionTimeout, InjectedFault):
    """A connection timeout injected by the fault plan."""


# --------------------------------------------------------------- attempts
_context = threading.local()


def current_attempt() -> int:
    """The retry attempt the calling thread is currently executing."""
    return getattr(_context, "attempt", 0)


@contextmanager
def fault_attempt(attempt: int) -> Iterator[None]:
    """Scope fault decisions to one retry attempt.

    Retry layers wrap each attempt so the plan re-rolls its dice: a
    transient fault on attempt 0 need not repeat on attempt 1, which is
    what makes retries meaningful under injection while staying
    deterministic (the attempt number is part of the hash input).
    """
    previous = getattr(_context, "attempt", 0)
    _context.attempt = attempt
    try:
        yield
    finally:
        _context.attempt = previous


@dataclass(frozen=True)
class VantageOutage:
    """One vantage point down for a window of simulated time (§6.1 churn:
    in-country volunteers disappear and come back)."""

    isp_name: str
    start: SimTime
    end: SimTime

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("outage end must be after start")

    def down_at(self, now: SimTime) -> bool:
        return self.start <= now < self.end


_RATE_FIELDS = (
    "dns_timeout_rate",
    "nxdomain_rate",
    "reset_rate",
    "timeout_rate",
    "truncate_rate",
    "garble_rate",
    "slow_rate",
)

#: ``FaultPlan.parse`` spelling of each rate field.
_SPEC_KEYS = {
    "dns_timeout": "dns_timeout_rate",
    "nxdomain": "nxdomain_rate",
    "reset": "reset_rate",
    "timeout": "timeout_rate",
    "truncate": "truncate_rate",
    "garble": "garble_rate",
    "slow": "slow_rate",
    "slow_seconds": "slow_seconds",
    "seed": "seed",
}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of infrastructure failures.

    All ``*_rate`` fields are probabilities in ``[0, 1]`` evaluated per
    (operation, key, attempt); ``outages`` are hard windows on the sim
    clock. The zero plan (every rate 0, no outages) is a guaranteed
    no-op.
    """

    seed: int = 0
    dns_timeout_rate: float = 0.0
    nxdomain_rate: float = 0.0
    reset_rate: float = 0.0
    timeout_rate: float = 0.0
    truncate_rate: float = 0.0
    garble_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.001
    outages: Tuple[VantageOutage, ...] = ()

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if not 0 <= self.slow_seconds < math.inf:
            raise ValueError("slow_seconds must be finite and >= 0")

    @property
    def active(self) -> bool:
        """Whether this plan can inject anything at all."""
        return bool(self.outages) or any(
            getattr(self, name) > 0.0 for name in _RATE_FIELDS
        )

    # -------------------------------------------------------------- dice
    def _roll(self, *path: str) -> float:
        """A uniform draw in [0, 1) addressed purely by name path."""
        return derive_seed(self.seed, "fault", *path) / float(1 << 64)

    def _fires(self, rate: float, op: str, *path: str) -> bool:
        if rate <= 0.0:
            return False
        return self._roll(op, *path, str(current_attempt())) < rate

    # --------------------------------------------------------- decisions
    def dns_fault(self, vantage: str, hostname: str) -> Optional[NetError]:
        """The DNS-layer fault for resolving ``hostname``, if any."""
        if self._fires(self.dns_timeout_rate, "dns-timeout", vantage, hostname):
            return InjectedDnsTimeout(
                f"injected DNS timeout for {hostname!r} at {vantage}"
            )
        if self._fires(self.nxdomain_rate, "nxdomain", vantage, hostname):
            return InjectedNxDomain(hostname)
        return None

    def connection_fault(self, vantage: str, hostname: str) -> Optional[NetError]:
        """The transport-layer fault for fetching from ``hostname``."""
        if self._fires(self.reset_rate, "reset", vantage, hostname):
            return InjectedConnectionReset(
                f"injected connection reset fetching {hostname!r} at {vantage}"
            )
        if self._fires(self.timeout_rate, "conn-timeout", vantage, hostname):
            return InjectedConnectionTimeout(
                f"injected connection timeout fetching {hostname!r} at {vantage}"
            )
        return None

    def outage_fault(self, vantage: str, now: SimTime) -> Optional[NetError]:
        """Whether ``vantage`` is inside a scheduled outage window."""
        for outage in self.outages:
            if outage.isp_name == vantage and outage.down_at(now):
                return InjectedConnectionTimeout(
                    f"vantage {vantage} is down (outage until {outage.end})"
                )
        return None

    def raise_fetch_faults(
        self, vantage: str, hostname: str, now: SimTime
    ) -> None:
        """Raise the first fault that applies to this fetch, if any.

        Checked before the fetch touches DNS or routing so injected
        errors can never be mistaken for simulated censorship outcomes.
        """
        fault = (
            self.outage_fault(vantage, now)
            or self.dns_fault(vantage, hostname)
            or self.connection_fault(vantage, hostname)
        )
        if fault is not None:
            raise fault

    def banner_corruption(self, ip: str, port: int) -> Optional[str]:
        """How a banner grab of ``(ip, port)`` is corrupted, if at all.

        Returns ``"truncate"`` or ``"garble"``; corruption degrades the
        scanner's view (keywords may be missed) without raising — the
        record arrives damaged, exactly like a half-read socket.
        """
        key = f"{ip}:{port}"
        if self._fires(self.truncate_rate, "truncate", key):
            return "truncate"
        if self._fires(self.garble_rate, "garble", key):
            return "garble"
        return None

    def extra_latency(self, vantage: str, hostname: str) -> float:
        """Wall-clock seconds a slow responder adds to this request."""
        if self._fires(self.slow_rate, "slow", vantage, hostname):
            return self.slow_seconds
        return 0.0

    # ------------------------------------------------------------ parsing
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec string.

        Comma-separated ``key=value`` pairs; keys are ``seed``,
        ``dns_timeout``, ``nxdomain``, ``reset``, ``timeout``,
        ``truncate``, ``garble``, ``slow``, ``slow_seconds``, plus
        repeatable ``outage=ISP:START_DAY:END_DAY`` windows::

            seed=7,dns_timeout=0.05,reset=0.02,outage=yemennet:300:305
        """
        kwargs: dict = {}
        outages = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad fault-plan entry {part!r} (need key=value)")
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key == "outage":
                pieces = raw.split(":")
                if len(pieces) != 3:
                    raise ValueError(
                        f"bad outage {raw!r} (need ISP:START_DAY:END_DAY)"
                    )
                isp, start_day, end_day = pieces
                outages.append(
                    VantageOutage(
                        isp,
                        SimTime.from_days(float(start_day)),
                        SimTime.from_days(float(end_day)),
                    )
                )
                continue
            field_name = _SPEC_KEYS.get(key)
            if field_name is None:
                raise ValueError(
                    f"unknown fault-plan key {key!r}; known: "
                    f"{', '.join(sorted(_SPEC_KEYS))}, outage"
                )
            kwargs[field_name] = int(raw) if field_name == "seed" else float(raw)
        return cls(outages=tuple(outages), **kwargs)

    def describe(self) -> str:
        """One-line rendering for logs and coverage reports."""
        parts = [f"seed={self.seed}"]
        for key, field_name in sorted(_SPEC_KEYS.items()):
            if field_name in ("seed",):
                continue
            value = getattr(self, field_name)
            if value:
                parts.append(f"{key}={value:g}")
        for outage in self.outages:
            parts.append(
                f"outage={outage.isp_name}:{outage.start.days:g}"
                f":{outage.end.days:g}"
            )
        return ",".join(parts)


#: The inert default installed in every world.
NO_FAULTS = FaultPlan()


def corrupt_text(mode: str, text: str) -> str:
    """Apply one banner-corruption mode to a text fragment.

    ``truncate`` keeps the first half (a half-read socket); ``garble``
    blanks out word characters (line noise), destroying keywords while
    preserving shape.
    """
    if not text:
        return text
    if mode == "truncate":
        return text[: max(1, len(text) // 2)]
    if mode == "garble":
        return "".join("#" if ch.isalnum() else ch for ch in text)
    raise ValueError(f"unknown corruption mode {mode!r}")
