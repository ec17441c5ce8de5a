"""The load generator: keep-alive HTTP connections, open and closed loops.

One process, at most two threads, one persistent HTTP/1.1 connection
per thread. Every call is recorded as an :class:`Op` with its due time
(open loop), send time and the time its last byte arrived, all on
``time.perf_counter`` (the system monotonic clock the traced servers
stamp their spans with). The benchmark's request id rides on the path
as ``?rid=<id>``; the servers route on the path before ``?``. The
threads are daemons, so a SIGTERM that unwinds the main thread (and
reaps the servers) ends the process without waiting out the schedule.

Every request leaves with the connection's delayed ACK armed (Linux
``TCP_QUICKACK`` off): the state the kernel puts a keep-alive
connection in by itself whenever the next request follows a response
within its 40 ms ACK timeout, as on a busy pooled connection. The
server writes a response's headers and body separately, so in that
state the body waits for the client's delayed ACK: the ~44 ms floor.
Left to the kernel, whether a request pays the floor depends on how
long its connection sat idle, and the p50 of cached reads flips
between about 5 ms and about 47 ms with the arrival gaps and the
host's load; armed, every request pays it and the floor shows in p50.
"""

from __future__ import annotations

import http.client
import itertools
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Per-call socket timeout; a delta ack can take seconds.
CALL_TIMEOUT = 120.0
#: Linux only; elsewhere the kernel's own ACK state is left alone.
TCP_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

_rid = itertools.count(1)


@dataclass
class Op:
    """One HTTP call as the client saw it."""

    kind: str
    rid: str
    due: float
    send: float
    end: float = 0.0
    status: int = 0
    body: Any = None
    error: Optional[str] = None
    #: Set by the answer check: the served answer was wrong.
    wrong: Optional[str] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and self.error is None \
            and self.wrong is None

    @property
    def latency(self) -> float:
        """Seconds from due (open loop) or send (closed loop)."""
        return self.end - self.due

    @property
    def round_trip(self) -> float:
        return self.end - self.send


class Connection:
    """A persistent connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._conn: Optional[http.client.HTTPConnection] = None

    def call(self, kind: str, method: str, path: str,
             payload: Any = None, due: Optional[float] = None,
             **meta: Any) -> Op:
        rid = f"b{next(_rid)}"
        sep = "&" if "?" in path else "?"
        data = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        send = time.perf_counter()
        op = Op(kind, rid, send if due is None else due, send, meta=meta)
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=CALL_TIMEOUT)
            self._arm_delayed_ack()
            self._conn.request(method, f"{path}{sep}rid={rid}",
                               body=data, headers=headers)
            reply = self._conn.getresponse()
            raw = reply.read()
            op.end = time.perf_counter()
            op.status = reply.status
            try:
                op.body = json.loads(raw) if raw else None
            except ValueError:
                op.error = "unparseable response body"
        except (OSError, http.client.HTTPException) as error:
            op.end = time.perf_counter()
            op.error = f"{type(error).__name__}: {error}"
            self.close()
        return op

    def _arm_delayed_ack(self) -> None:
        """Connect if needed; turn quick ACKs off for the next reply.
        The kernel turns them back on when its ACK timer fires, so this
        runs before every request."""
        if self._conn.sock is None:
            self._conn.connect()
        if TCP_QUICKACK is not None:
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, TCP_QUICKACK, 0)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


#: A unit of work: runs calls on one connection, returns their ops.
Task = Callable[[Connection, float], List[Op]]


@dataclass
class LoopResult:
    ops: List[Op]
    start: float
    end: float
    #: Open loop: seconds each task started after it was due, in
    #: due order.
    lateness: List[float] = field(default_factory=list)
    #: Open loop: tasks due in the window but never started.
    unsent: int = 0


def open_loop(lanes: List[tuple], seconds: float) -> LoopResult:
    """Open loop: each lane is ``(connections, [(due_offset, task),
    ...])``. Every connection gets a thread that takes the lane's next
    arrival, waits until it is due and runs it; an arrival due while
    all of its lane's connections are busy starts late, and the wait
    counts in its latency. Arrivals still unstarted a full window
    after the window closed are dropped and counted as unsent."""
    ops: List[Op] = []
    lateness: List[tuple] = []
    unsent = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    give_up = start + 2 * seconds

    def lane(conn: Connection, queue: Iterator[tuple]) -> None:
        while True:
            with lock:
                item = next(queue, None)
            if item is None:
                return
            offset, task = item
            due = start + offset
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            elif now > give_up:
                with lock:
                    unsent[0] += 1
                continue
            begun = time.perf_counter()
            done = task(conn, due)
            with lock:
                lateness.append((offset, begun - due))
                ops.extend(done)

    threads = []
    for conns, schedule in lanes:
        queue = iter(schedule)
        threads += [threading.Thread(target=lane, args=(conn, queue),
                                     daemon=True)
                    for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    lateness.sort()
    return LoopResult(ops, start, time.perf_counter(),
                      [late for _, late in lateness], unsent[0])


def closed_loop(conns: List[Connection], tasks: Iterator[Task],
                seconds: float) -> LoopResult:
    """Each connection's thread sends its next task as soon as the
    previous one answered, until ``seconds`` have passed."""
    ops: List[Op] = []
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def lane(conn: Connection) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                task = next(tasks, None)
            if task is None:
                return
            done = task(conn, time.perf_counter())
            with lock:
                ops.extend(done)

    threads = [threading.Thread(target=lane, args=(conn,), daemon=True)
               for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return LoopResult(ops, start, time.perf_counter())
