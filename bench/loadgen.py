"""HTTP load for the serve workload: keep-alive connections, a closed
loop and an open loop, from one client process.

Closed loop: each connection sends its next request only when the
previous response has arrived, so a slower server receives less load.
Open loop: request i is due at ``start + i / rate`` whatever the server
does; a connection that is still busy sends it late, and latency is
timed from the due time, so a stall is charged to every request it
delays. How late requests left the generator is reported alongside.
"""

from __future__ import annotations

import bisect
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple


class HttpConnection:
    """A minimal HTTP/1.1 keep-alive GET client over one socket."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def get(self, target: str) -> Tuple[int, bytes]:
        """(status, body) of ``GET target``."""
        self._sock.sendall(
            b"GET " + target.encode("ascii") + b" HTTP/1.1\r\nHost: bench\r\n\r\n"
        )
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
                break
        self._buffer = rest
        while len(self._buffer) < length:
            self._fill()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, body

    def _fill(self) -> None:
        chunk = self._sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def close(self) -> None:
        self._sock.close()


def zipf_draws(count: int, draws: int, seed: int, exponent: float = 1.1) -> List[int]:
    """``draws`` indices in ``range(count)``, index k drawn with weight
    ``1 / (k + 1) ** exponent``."""
    cumulative = []
    total = 0.0
    for rank in range(count):
        total += 1.0 / (rank + 1) ** exponent
        cumulative.append(total)
    rng = random.Random(seed)
    return [
        min(bisect.bisect_left(cumulative, rng.random() * total), count - 1)
        for _ in range(draws)
    ]


@dataclass
class Outcome:
    """One request: when it was due, sent and done, and whether it was
    a 200 whose body matched the expected render."""

    due: float
    sent: float
    done: float
    ok: bool
    size: int = 0

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class LoadResult:
    outcomes: List[Outcome] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)


Send = Callable[[int, str], Tuple[int, bytes]]


class Load:
    """Drives ``connections`` workers over a shared request sequence.

    ``send(worker, target)`` performs one request on that worker's
    connection. ``expected`` maps each target to its correct body; any
    other status, body or a raised error counts the request as failed.
    """

    def __init__(
        self,
        send: Send,
        targets: Sequence[str],
        sequence: Sequence[int],
        expected: Dict[str, bytes],
        *,
        connections: int = 2,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._send = send
        self._targets = targets
        self._sequence = sequence
        self._expected = expected
        self._connections = connections
        self._clock = clock
        self._sleep = sleep
        self._cursor = 0
        self._lock = threading.Lock()

    def _next(self) -> int:
        with self._lock:
            index = self._cursor
            self._cursor += 1
            return index

    def _request(self, worker: int, position: int, due: float) -> Outcome:
        target = self._targets[self._sequence[position % len(self._sequence)]]
        sent = self._clock()
        try:
            status, body = self._send(worker, target)
        except OSError:
            return Outcome(due, sent, self._clock(), False)
        done = self._clock()
        ok = status == 200 and body == self._expected[target]
        return Outcome(due, sent, done, ok, len(body))

    def _run(self, worker_fn: Callable[[int, List[Outcome]], None]) -> LoadResult:
        per_worker: List[List[Outcome]] = [[] for _ in range(self._connections)]
        result = LoadResult(started=self._clock())
        threads = [
            threading.Thread(target=worker_fn, args=(worker, per_worker[worker]))
            for worker in range(self._connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.ended = self._clock()
        for outcomes in per_worker:
            result.outcomes.extend(outcomes)
        result.outcomes.sort(key=lambda outcome: outcome.due)
        return result

    def closed(self, count: int) -> LoadResult:
        """Closed loop over the next ``count`` requests of the sequence:
        due time is send time."""
        end = self._cursor + count

        def worker(index: int, outcomes: List[Outcome]) -> None:
            while True:
                position = self._next()
                if position >= end:
                    return
                outcomes.append(self._request(index, position, self._clock()))

        return self._run(worker)

    def open(self, rate: float, seconds: float) -> LoadResult:
        """Open loop: ``rate * seconds`` requests, request i due at
        ``start + i / rate``."""
        count = int(rate * seconds)
        start = self._clock()
        first = self._cursor

        def worker(index: int, outcomes: List[Outcome]) -> None:
            while True:
                position = self._next()
                offset = position - first
                if offset >= count:
                    return
                due = start + offset / rate
                wait = due - self._clock()
                if wait > 0:
                    self._sleep(wait)
                outcomes.append(self._request(index, position, due))

        return self._run(worker)


def connect(host: str, port: int, connections: int) -> Tuple[Send, Callable[[], None]]:
    """A ``send`` over ``connections`` keep-alive sockets, and a closer."""
    pool = [HttpConnection(host, port) for _ in range(connections)]

    def send(worker: int, target: str) -> Tuple[int, bytes]:
        return pool[worker].get(target)

    def close() -> None:
        for connection in pool:
            connection.close()

    return send, close
