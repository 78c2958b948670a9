"""Concurrent-user license model.

§4.4, Challenge 2: "prior work by the ONI observed a Yemeni ISP using
Websense with a limited number of concurrent user licenses. When the
number of users exceeded the number of licenses no content would be
filtered." The same fail-open behaviour explains the inconsistent
blocking observed with Netsweeper in YemenNet: on some runs the filter
is effectively offline.

The model: a deployment has ``seats`` licenses and faces a fluctuating
offered load of concurrent users. Load at a given simulated minute is
drawn deterministically from (seed, minute) so that all fetches within
the same minute observe the same filter state, and different minutes
fluctuate independently — repeated measurement runs separated in time
therefore see different filter states, exactly the §4.4 symptom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.world.clock import SimTime
from repro.world.rng import derive_rng


@dataclass
class LicenseModel:
    """Fail-open licensing: filtering is active only when load <= seats."""

    seats: int
    mean_load: float
    load_stddev: float
    seed: int
    label: str = "license"

    def __post_init__(self) -> None:
        if self.seats <= 0:
            raise ValueError("seats must be positive")
        if self.mean_load < 0 or self.load_stddev < 0:
            raise ValueError("load parameters must be non-negative")

    def concurrent_users(self, now: SimTime, salt: str = "") -> int:
        """Deterministic offered load for the given simulated minute.

        ``salt`` (the middlebox passes the target hostname) decorrelates
        the state seen by different flows in the same minute — §4.4
        observed "some proxy URLs are accessible on runs where other
        proxy URLs are blocked", i.e. per-flow, not per-instant, failure.
        """
        rng = derive_rng(self.seed, self.label, str(now.minutes), salt)
        load = rng.gauss(self.mean_load, self.load_stddev)
        return max(0, int(round(load)))

    def filtering_active(self, now: SimTime, salt: str = "") -> bool:
        """True when the box has a free seat and enforces policy."""
        return self.concurrent_users(now, salt) <= self.seats

    def overflow_probability(self) -> float:
        """Analytic P(load > seats) under the Gaussian load model."""
        if self.load_stddev == 0:
            return 1.0 if self.mean_load > self.seats else 0.0
        z = (self.seats + 0.5 - self.mean_load) / self.load_stddev
        return 0.5 * math.erfc(z / math.sqrt(2.0))
