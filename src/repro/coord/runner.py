"""Local worker fleets for the distributed scan.

The production shape is one ``repro scan --coordinator DIR`` process
plus any number of ``repro scan-worker DIR`` processes, started and
killed independently. :func:`spawn_workers` starts genuine OS worker
processes against a coordinator directory (so a SIGKILL in a test kills
a real worker, not a thread); the caller waits, reconciles and reaps
them. :func:`run_worker` runs one worker in the calling process.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path
from typing import List, Optional, Union

from repro.coord.worker import ScanWorker


def run_worker(
    directory: Union[str, Path],
    *,
    worker_id: Optional[str] = None,
    poll: float = 0.1,
) -> "ScanWorker":
    """Run one worker to queue terminality; returns it (summary inside)."""
    worker = ScanWorker(Path(directory), worker_id=worker_id, poll=poll)
    worker.run()
    return worker


def _fleet_worker(directory: str, worker_id: str, poll: float) -> None:
    """Module-level so multiprocessing can spawn it."""
    run_worker(directory, worker_id=worker_id, poll=poll)


def spawn_workers(
    directory: Union[str, Path],
    count: int,
    *,
    poll: float = 0.1,
    prefix: str = "worker",
) -> List[multiprocessing.Process]:
    """Start ``count`` independent worker processes against ``directory``."""
    processes = []
    for index in range(count):
        process = multiprocessing.Process(
            target=_fleet_worker,
            args=(str(directory), f"{prefix}-{index}", poll),
            name=f"{prefix}-{index}",
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes
