import threading
import time

import pytest

from bench import hostspeed
from bench.hostspeed import REFERENCE_S, Tally, advance


def test_a_stretch_is_scaled_by_how_slow_the_reference_ran():
    start = Tally(scaled=0.0, raw=0.0, at=1.0, own=0.0, took=REFERENCE_S)
    # 0.5 s of process CPU time, 0.1 s of it the sampler's own, while the
    # reference loop ran at half speed.
    later = advance(start, at=1.5, own=0.1, took=2 * REFERENCE_S)
    assert later.raw == pytest.approx(0.4)
    assert later.scaled == pytest.approx(0.2)
    # The next stretch at full speed counts in full.
    assert advance(later, at=2.0, own=0.2, took=REFERENCE_S).scaled == (
        pytest.approx(0.6)
    )


def _busy(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        sum(range(1000))


def test_the_clock_counts_the_process_less_its_sampler_and_stops():
    started = time.process_time()
    with hostspeed.ScaledCpuClock() as clock:
        before = clock.read()
        _busy(0.3)
        used = clock.read() - before
        total = time.process_time() - started
    assert 0.0 < used.raw < total
    # The sampler takes a few per cent of the CPU time, never most of it.
    assert used.raw > 0.8 * total
    assert used.scaled > 0.0
    assert "hostspeed" not in {thread.name for thread in threading.enumerate()}
    # Read after stop, the sampler's final CPU time is used.
    assert clock.read().raw >= before.raw
