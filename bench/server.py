"""The serve workload's server process: ``ResultsServer`` over a store.

Usage: ``python bench/server.py STORE [--spans FILE]``. Once the server
is listening it prints one line, the bound port and the scaled user CPU
seconds the process has used so far (see ``bench/hostspeed.py``). Each
SIGUSR1 prints one more line, the fields of a ``hostspeed.Reading``.
It serves until SIGTERM. With ``--spans`` the tracer is
installed before the server is built, and its spans are written to FILE
after SIGTERM.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The repo root replaces this script's directory on the path, so that
# bench/trace.py is imported as bench.trace and never shadows the
# standard library's trace module.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]  # run only as a script

from bench.hostspeed import ScaledCpuClock  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store")
    parser.add_argument("--spans")
    args = parser.parse_args()
    # Blocked here, both signals stay blocked in every thread started
    # later, so they are only ever taken by the sigwait below, never
    # mid-request.
    signals = {signal.SIGTERM, signal.SIGUSR1}
    signal.pthread_sigmask(signal.SIG_BLOCK, signals)

    with ScaledCpuClock() as clock:
        tracer = None
        if args.spans:
            from bench.trace import Tracer, write_jsonl

            # Handler threads take turns on one interpreter lock, so a
            # wall clock span would include the other thread's turns;
            # spans here measure the handling thread's own CPU time.
            tracer = Tracer(clock=time.thread_time).install()
        from repro.serve import ResultsServer
        from repro.store import ResultsStore

        server = ResultsServer(ResultsStore(Path(args.store))).start()
        print(server.port, clock.read().scaled, flush=True)
        while signal.sigwait(signals) == signal.SIGUSR1:
            print(*clock.read(), flush=True)
        server.stop()
    if tracer is not None:
        tracer.remove()
        write_jsonl(args.spans, tracer.records())
    return 0


if __name__ == "__main__":
    sys.exit(main())
