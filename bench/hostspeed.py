"""User CPU time at a fixed reference speed, on a host whose speed drifts.

The benchmark runs on shared virtual machines. When neighbouring guests
are busy, the same work takes 1.5-1.8x the CPU time it takes when they
are quiet, and the busy and quiet spells each last from seconds to
minutes. Over ten runs, that put the quartile spread of plain CPU time
at up to 0.41 of the median, whatever the run's length.

:class:`ScaledCpuClock` takes that drift out. A sampler thread times a
fixed reference loop every 10 ms. The process's user CPU time between
two samples, less the sampler's own CPU time, is divided by how slow
the loop ran at the end of that stretch: ``cpu * REFERENCE_S / took``.
The sum is user CPU time at the reference speed: it moves with the work
the program does, and barely with its neighbours: twelve discover units
in a row read 1.77-2.57 s plain and 1.64-1.77 s scaled.

Kernel CPU time is kept apart and not scaled. In identical monitor
units it ranged over 0.68-1.34 s, while scaled user time stayed within
1%: it follows the host's disk and page cache more than the program.

Whole-unit calibration does not work. A loop timed before and after a
unit misses the spells inside it, and widened the spread instead.
"""

from __future__ import annotations

import resource
import threading
import time
from typing import NamedTuple

#: The reference loop's CPU time on an uncontended core of the 2-vCPU
#: Xeon guest the benchmark was sized on, so that scaled CPU time there
#: reads about as plain CPU time in a quiet spell.
REFERENCE_S = 400e-6

#: Seconds between samples.
INTERVAL_S = 0.01


def reference_loop() -> int:
    """A fixed amount of interpreter work: dict updates and small
    string conversions, like the program's own inner loops."""
    counts = {}
    length = 0
    for i in range(2000):
        key = i & 63
        counts[key] = counts.get(key, 0) + i
        length += len(str(i))
    return length


class Reading(NamedTuple):
    """CPU seconds of the process: user time less the sampler's, at the
    reference speed and as measured, and kernel time as measured."""

    scaled: float
    raw: float
    system: float

    def __sub__(self, other: "Reading") -> "Reading":
        return Reading(
            self.scaled - other.scaled,
            self.raw - other.raw,
            self.system - other.system,
        )


class Tally(NamedTuple):
    """The clock's user-time totals as of its last sample."""

    scaled: float
    raw: float
    #: Process user CPU time when the last sample began.
    at: float
    #: The sampler's own CPU time when the last sample began.
    own: float
    #: How long the last sample's reference loop took.
    took: float


def advance(state: Tally, at: float, own: float, took: float) -> Tally:
    """Account the stretch from ``state``'s sample to one that began at
    process user CPU ``at`` and sampler CPU ``own`` and whose loop took
    ``took``. Both clocks include the previous loop, so it cancels."""
    cpu = (at - state.at) - (own - state.own)
    return Tally(
        state.scaled + cpu * REFERENCE_S / took, state.raw + cpu, at, own, took
    )


def _usage() -> resource.struct_rusage:
    return resource.getrusage(resource.RUSAGE_SELF)


class ScaledCpuClock:
    """Samples the host's speed from a thread until :meth:`stop`;
    :meth:`read` gives the CPU time used since the clock started."""

    def __init__(self) -> None:
        usage = _usage()
        self._system_at_start = usage.ru_stime
        self._state = Tally(0.0, 0.0, usage.ru_utime, 0.0, REFERENCE_S)
        self._stopping = threading.Event()
        self._own_at_exit = 0.0
        self._thread = threading.Thread(
            target=self._sample, name="hostspeed", daemon=True
        )
        self._thread.start()
        self._own_clock = time.pthread_getcpuclockid(self._thread.ident)

    def _sample(self) -> None:
        while not self._stopping.wait(INTERVAL_S):
            own = time.thread_time()
            at = _usage().ru_utime
            reference_loop()
            self._state = advance(self._state, at, own, time.thread_time() - own)
        self._own_at_exit = time.thread_time()

    def read(self) -> Reading:
        """CPU time since the clock started; the user time since the
        last sample is scaled by that sample."""
        state = self._state
        own = self._own_at_exit
        if self._thread.is_alive():
            try:
                own = time.clock_gettime(self._own_clock)
            except OSError:  # the sampler ended since is_alive()
                own = self._own_at_exit
        usage = _usage()
        now = advance(state, usage.ru_utime, own, state.took)
        return Reading(now.scaled, now.raw, usage.ru_stime - self._system_at_start)

    def stop(self) -> None:
        self._stopping.set()
        self._thread.join()

    def __enter__(self) -> "ScaledCpuClock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
