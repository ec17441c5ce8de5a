"""Process worker pool over one shared snapshot.

:class:`WorkerPool` owns N worker processes (see
:mod:`repro.parallel.worker`), each serving the same published
snapshot. The plumbing is deliberately simple and lock-light:

* **dispatch** — every worker has a private task queue; tasks are
  round-robined across live workers (or targeted, for broadcasts).
  Each task gets a :class:`concurrent.futures.Future` the caller
  blocks on, so any number of parent threads can submit concurrently;
* **router** — one parent thread drains the single shared result
  queue and resolves futures by request id;
* **monitor** — one parent thread polls worker liveness. A dead
  worker (crash, kill, OOM) fails every future assigned to it with
  :class:`~repro.exceptions.WorkerCrashedError`, then a replacement
  process is spawned from the same snapshot with a fresh task queue —
  callers see one errored request, never a hung one;
* **watchdog** — a worker reports ``started`` when it picks a
  request off its queue; from that moment the request carries a
  lease deadline (``lease_seconds`` past *start of execution*, so
  queue wait never counts against it — back-to-back long queries on
  one worker each get a full lease). A worker still holding an
  expired lease is declared *hung* — stuck enumeration, deadlock,
  swap storm — and the monitor escalates ``terminate()`` →
  ``kill()``, respawns the slot, and fails the leased futures with
  :class:`~repro.exceptions.WorkerTimeoutError` (HTTP 503 at the
  service), so a caller waits at most one lease past start, never
  forever. A worker incarnation that has never answered anything
  (hung while loading its snapshot) is covered by a dispatch-age
  bound instead: a request queued to it for a whole lease without a
  ``started`` marker counts as expired;
* **circuit breaker** — each respawn is stamped; more than
  ``max_respawns`` inside ``respawn_window`` seconds is a crash
  storm (bad snapshot, poison query, OOM loop). The breaker opens:
  the dead slot is *removed* instead of respawned, the pool shrinks
  to its surviving workers, and :attr:`WorkerPool.degraded` flips —
  ``/healthz`` reports ``degraded`` and ``repro_pool_degraded`` is 1.
  The breaker is sticky; recovery is an operator restart (see
  ``docs/OPERATIONS.md``);
* **shutdown** — a ``None`` sentinel per task queue, bounded joins,
  ``terminate()`` then ``kill()`` for stragglers — shutdown can
  never leave a live orphan process behind.

Workers start by ``fork`` where the platform offers it (they then
share the parent's page-cache view of the snapshot files and start in
milliseconds), else by ``spawn``. They keep no result cache.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import sys
import threading
import time
import uuid
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro import faults
from repro.exceptions import (
    QueryError,
    WorkerCrashedError,
    WorkerError,
    WorkerTimeoutError,
)
from repro.parallel.worker import worker_main

#: Seconds between liveness polls of the monitor thread.
MONITOR_INTERVAL = 0.2

#: Seconds a worker gets to exit after its shutdown sentinel.
JOIN_TIMEOUT = 5.0

#: Seconds a terminated process gets before the SIGKILL escalation.
KILL_GRACE = 1.0

#: Default per-request lease (counted from when the worker *starts*
#: executing the request, not from dispatch) before the watchdog
#: declares the worker hung. Generous: COMM-all on the bench datasets
#: answers in milliseconds; anything holding a core for minutes is
#: wedged.
DEFAULT_LEASE_SECONDS = 120.0

#: Default crash-storm circuit breaker: more than this many respawns
#: inside :data:`DEFAULT_RESPAWN_WINDOW` seconds opens the breaker.
DEFAULT_MAX_RESPAWNS = 5

#: Seconds over which respawns are counted against the breaker.
DEFAULT_RESPAWN_WINDOW = 30.0


class _WorkerHandle:
    """One worker slot: the live process and its private task queue."""

    __slots__ = ("worker_id", "process", "queue", "proved")

    def __init__(self, worker_id: int, process: Any,
                 queue: Any) -> None:
        self.worker_id = worker_id
        self.process = process
        self.queue = queue
        #: True once this incarnation sent anything back on the result
        #: queue — proof it loaded its snapshot and reads its queue.
        #: Until then the watchdog bounds *queue wait* too (a worker
        #: hung during startup never emits ``started`` markers).
        self.proved = False


class TaskFuture(Future):
    """The future of one pool task.

    ``state`` is the state id the worker reported when it started the
    task (:attr:`~repro.engine.engine.QueryEngine.state_id`), so the
    caller knows which state an answer was computed on; ``None``
    until then, and for a worker whose state has no id.
    """

    state: Optional[str] = None


class WorkerPool:
    """N processes serving the snapshot at ``snapshot_path``."""

    def __init__(self, snapshot_path: Union[str, Path],
                 workers: int = 2,
                 lease_seconds: Optional[float] = DEFAULT_LEASE_SECONDS,
                 max_respawns: int = DEFAULT_MAX_RESPAWNS,
                 respawn_window: float = DEFAULT_RESPAWN_WINDOW,
                 wal_path: Optional[str] = None
                 ) -> None:
        if workers <= 0:
            raise ValueError(
                f"worker count must be positive, got {workers}")
        if lease_seconds is not None and lease_seconds <= 0:
            raise ValueError(
                f"lease_seconds must be positive, got {lease_seconds}")
        self.snapshot_path = str(snapshot_path)
        #: Path of the delta WAL every worker incarnation replays
        #: after loading its snapshot (``None`` = no WAL). Spawn-mode
        #: children re-read the file themselves, so this stays a
        #: picklable string, never a live handle.
        self.wal_path = wal_path
        self.workers = workers
        #: Per-request watchdog lease; ``None`` disables the watchdog.
        self.lease_seconds = lease_seconds
        self.max_respawns = max_respawns
        self.respawn_window = respawn_window
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._handles: Dict[int, _WorkerHandle] = {}
        self._pending: Dict[str, Tuple[Future, int]] = {}
        #: request_id -> monotonic lease deadline, set by the router
        #: when the worker reports it *started* the request (kept
        #: apart from ``_pending`` so its 2-tuple shape stays stable
        #: for callers).
        self._leases: Dict[str, float] = {}
        #: request_id -> monotonic dispatch time; bounds queue wait
        #: only on worker incarnations that never proved themselves.
        self._dispatched: Dict[str, float] = {}
        self._respawn_times: Deque[float] = collections.deque()
        self._lock = threading.Lock()
        self._rr = itertools.count()
        self._result_queue: Any = None
        self._router: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.respawns = 0
        #: Requests failed by the watchdog (hung-worker kills).
        self.timeouts = 0
        #: True once the crash-storm breaker opened; sticky until the
        #: pool is rebuilt.
        self.degraded = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, wait_ready: bool = True,
              timeout: float = 60.0) -> "WorkerPool":
        """Spawn the workers and the router/monitor threads.

        With ``wait_ready`` (the default) the call blocks until every
        worker answered a ``ping`` — i.e. finished loading the
        snapshot — so the first real query never pays cold-start.
        """
        if self._result_queue is not None:
            return self
        self._result_queue = self._ctx.Queue()
        for worker_id in range(self.workers):
            self._spawn(worker_id)
        self._router = threading.Thread(
            target=self._route_results, daemon=True,
            name="repro-pool-router")
        self._router.start()
        self._monitor = threading.Thread(
            target=self._watch_workers, daemon=True,
            name="repro-pool-monitor")
        self._monitor.start()
        if wait_ready:
            for future in self.broadcast("ping", None).values():
                future.result(timeout=timeout)
        return self

    def _spawn(self, worker_id: int) -> None:
        """Start (or restart) the worker in slot ``worker_id``."""
        faults.hit("pool.spawn")
        queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self.snapshot_path, queue,
                  self._result_queue, self.wal_path),
            daemon=True, name=f"repro-worker-{worker_id}")
        process.start()
        self._handles[worker_id] = _WorkerHandle(
            worker_id, process, queue)

    @staticmethod
    def _destroy(handle: _WorkerHandle,
                 grace: float = KILL_GRACE) -> None:
        """Stop a worker process for sure: terminate, then kill.

        SIGTERM first (lets the child run atexit/queue feeders down),
        SIGKILL when it survives the grace period — a worker stuck in
        an uninterruptible loop or masking signals cannot outlive
        this.
        """
        process = handle.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=grace)
        if process.is_alive():
            process.kill()
            process.join(timeout=grace)

    @staticmethod
    def _dispose_queue(queue: Any) -> None:
        """Release a parent-side queue without risking an exit hang.

        ``multiprocessing.Queue`` registers an atexit finalizer that
        joins its feeder thread; a queue whose consumer died (a
        crashed or killed worker) can leave that feeder blocked
        forever, hanging interpreter shutdown. ``cancel_join_thread``
        unregisters the join so exit never waits on it.
        """
        try:
            queue.cancel_join_thread()
            queue.close()
        except (ValueError, OSError):
            pass                          # queue already closed

    def shutdown(self) -> None:
        """Sentinel every worker, join, terminate/kill stragglers."""
        if self._result_queue is None:
            return
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=JOIN_TIMEOUT)
        for handle in self._handles.values():
            try:
                handle.queue.put(None)
            except (ValueError, OSError):
                pass                      # queue already closed
        for handle in self._handles.values():
            handle.process.join(timeout=JOIN_TIMEOUT)
            self._destroy(handle)
            self._dispose_queue(handle.queue)
        try:
            self._result_queue.put(None)
        except (ValueError, OSError):
            pass                          # already closed (re-entry)
        if self._router is not None:
            self._router.join(timeout=JOIN_TIMEOUT)
        self._dispose_queue(self._result_queue)
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
            self._leases.clear()
            self._dispatched.clear()
        for future, _ in pending:
            if not future.done():
                future.set_exception(
                    WorkerError("pool shut down with request pending"))

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    @property
    def alive(self) -> int:
        """How many worker processes are currently running."""
        return sum(1 for handle in self._handles.values()
                   if handle.process.is_alive())

    def pids(self) -> Dict[int, int]:
        """``worker_id -> pid`` of the current processes."""
        return {wid: handle.process.pid
                for wid, handle in self._handles.items()}

    def submit(self, op: str, payload: Any,
               worker_id: Optional[int] = None) -> TaskFuture:
        """Queue one task; returns the future for its result.

        Without ``worker_id`` the task round-robins across live
        workers; a targeted submit goes to that slot regardless (used
        by broadcasts, which must reach every worker).
        """
        if self._result_queue is None:
            raise WorkerError("pool is not started")
        if self._router is not None and not self._router.is_alive() \
                and not self._stop.is_set():
            raise WorkerError(
                "pool result router is not running; results would "
                "never be delivered")
        faults.hit("pool.dispatch")
        if worker_id is None:
            worker_id = self._pick_worker()
        handle = self._handles[worker_id]
        request_id = uuid.uuid4().hex
        future = TaskFuture()
        with self._lock:
            self._pending[request_id] = (future, worker_id)
            if self.lease_seconds is not None:
                # The execution lease starts only when the worker
                # reports ``started``; until then the dispatch stamp
                # bounds queue wait on unproven incarnations.
                self._dispatched[request_id] = time.monotonic()
        try:
            handle.queue.put((request_id, op, payload))
        except Exception as error:  # noqa: BLE001 — queue failure
            with self._lock:
                self._pending.pop(request_id, None)
                self._leases.pop(request_id, None)
                self._dispatched.pop(request_id, None)
            future.set_exception(WorkerError(str(error)))
        return future

    def request(self, op: str, payload: Any,
                timeout: Optional[float] = None) -> Any:
        """Submit and block for the result."""
        return self.submit(op, payload).result(timeout=timeout)

    def kick(self, worker_id: int) -> bool:
        """Destroy a worker so the monitor respawns it fresh.

        The self-healing path for a worker that failed a delta
        broadcast while a WAL is attached: its replacement replays
        the full WAL suffix on startup and converges with the pool
        without anyone tracking which delta it missed. Returns
        ``False`` for an unknown (breaker-removed) slot.
        """
        handle = self._handles.get(worker_id)
        if handle is None:
            return False
        self._fail_pending(
            worker_id,
            f"worker {worker_id} (pid {handle.process.pid}) was "
            f"kicked for respawn after a failed delta broadcast")
        self._destroy(handle)
        return True

    def broadcast(self, op: str,
                  payload: Any) -> Dict[int, Future]:
        """One targeted task per worker slot; ``worker_id -> future``.

        Control messages (reload, stats, ping) ride the same queues
        as queries, so a broadcast lands *behind* whatever each worker
        already has in flight — a reload never preempts or drops a
        running query.
        """
        return {worker_id: self.submit(op, payload, worker_id)
                for worker_id in sorted(self._handles)}

    def _pick_worker(self) -> int:
        """Round-robin over live workers (any slot if none look live)."""
        slots = sorted(self._handles)
        if not slots:
            raise WorkerCrashedError(
                "pool has no workers left (crash-storm breaker open)")
        for _ in range(len(slots)):
            worker_id = slots[next(self._rr) % len(slots)]
            if self._handles[worker_id].process.is_alive():
                return worker_id
        return slots[next(self._rr) % len(slots)]

    # ------------------------------------------------------------------
    # router / monitor threads
    # ------------------------------------------------------------------
    def _route_results(self) -> None:
        """Drain the shared result queue, resolving futures.

        The loop survives anything a single message can throw at it:
        a worker SIGKILLed mid-``put`` (watchdog, crash) can leave a
        torn or partial pickle in the shared queue, and a router that
        died on the resulting unpickling error would silently hang
        every pending and future request. Such messages are logged
        and dropped instead.
        """
        while True:
            try:
                item = self._result_queue.get()
                if item is None:
                    return
                request_id, worker_id, status, payload = item
                if status == "started":
                    self._mark_started(request_id, worker_id, payload)
                    continue
                with self._lock:
                    entry = self._pending.pop(request_id, None)
                    self._leases.pop(request_id, None)
                    self._dispatched.pop(request_id, None)
                    if entry is not None and entry[1] == worker_id:
                        handle = self._handles.get(worker_id)
                        if handle is not None:
                            handle.proved = True
                if entry is None:
                    continue          # crashed-and-failed, late reply
                future, _ = entry
                if future.done():
                    continue
                if status == "ok":
                    future.set_result(payload)
                elif status == "query_error":
                    # Bad query, healthy worker: surface the same
                    # exception type in-process execution raises.
                    future.set_exception(QueryError(payload))
                else:
                    future.set_exception(WorkerError(payload))
            except Exception as error:  # noqa: BLE001 — a corrupt
                # message must not kill the router.
                if self._stop.is_set():
                    return
                print(f"repro-pool-router: dropped undecodable "
                      f"result ({type(error).__name__}: {error})",
                      file=sys.stderr)
                time.sleep(0.05)      # never spin on a broken queue

    def _mark_started(self, request_id: str, worker_id: int,
                      state: Optional[str]) -> None:
        """A worker began executing ``request_id`` on ``state``: start
        its lease and record the state on its future.

        Stale markers — from a killed incarnation, or for a request
        already failed by the monitor — no longer map to a pending
        entry on that worker and are ignored.
        """
        with self._lock:
            entry = self._pending.get(request_id)
            if entry is None or entry[1] != worker_id:
                return
            entry[0].state = state
            handle = self._handles.get(worker_id)
            if handle is not None:
                handle.proved = True
            if self.lease_seconds is not None:
                self._leases[request_id] = (
                    time.monotonic() + self.lease_seconds)

    def _watch_workers(self) -> None:
        """Fail futures of dead workers, kill hung ones, respawn.

        One loop, two detectors: a *dead* worker (``is_alive`` false)
        crashed on its own; a *hung* worker is alive but holds a
        request whose lease deadline passed — the watchdog kills it.
        Either way the slot's futures fail immediately and the slot is
        respawned, unless the crash-storm breaker has opened.
        """
        while not self._stop.wait(MONITOR_INTERVAL):
            for worker_id in self._expired_workers():
                if self._stop.is_set():
                    return
                handle = self._handles[worker_id]
                self.timeouts += 1
                self._fail_pending(
                    worker_id,
                    f"worker {worker_id} (pid {handle.process.pid}) "
                    f"exceeded its {self.lease_seconds:g}s request "
                    f"lease and was killed",
                    WorkerTimeoutError)
                self._destroy(handle)
                self._respawn(worker_id)
            for worker_id in sorted(self._handles):
                handle = self._handles[worker_id]
                if handle.process.is_alive():
                    continue
                if self._stop.is_set():
                    return
                self._fail_pending(
                    worker_id,
                    f"worker {worker_id} (pid {handle.process.pid}) "
                    f"died with exit code "
                    f"{handle.process.exitcode}",
                    WorkerCrashedError)
                self._respawn(worker_id)

    def _expired_workers(self) -> List[int]:
        """Worker ids currently holding an expired request lease.

        Two cases count as expired:

        * a request the worker *started* more than ``lease_seconds``
          ago (the normal hung-mid-request case). Requests still
          queued behind it carry no lease — queue wait on a proven
          worker never triggers the watchdog;
        * a request dispatched more than ``lease_seconds`` ago to an
          incarnation that has never answered anything — a worker
          hung while loading its snapshot would otherwise sit on its
          queue forever without ever emitting a ``started`` marker.
        """
        if self.lease_seconds is None:
            return []
        now = time.monotonic()
        expired = set()
        with self._lock:
            for request_id, (_, worker_id) in self._pending.items():
                handle = self._handles.get(worker_id)
                if handle is None:
                    continue
                deadline = self._leases.get(request_id)
                if deadline is not None:
                    if deadline <= now:
                        expired.add(worker_id)
                elif not handle.proved:
                    dispatched = self._dispatched.get(request_id, now)
                    if now - dispatched > self.lease_seconds:
                        expired.add(worker_id)
        return sorted(expired)

    def _respawn(self, worker_id: int) -> None:
        """Refill a dead slot — unless this is a crash storm.

        Every respawn is timestamped; more than ``max_respawns``
        inside ``respawn_window`` seconds opens the breaker: the slot
        is removed (the pool shrinks to its survivors), ``degraded``
        flips, and no further respawns happen. Surviving workers keep
        answering; ``/healthz`` turns ``degraded``.
        """
        old = self._handles.get(worker_id)
        now = time.monotonic()
        while self._respawn_times and \
                now - self._respawn_times[0] > self.respawn_window:
            self._respawn_times.popleft()
        if self.degraded or \
                len(self._respawn_times) >= self.max_respawns:
            self.degraded = True
            self._handles.pop(worker_id, None)
            if old is not None:
                self._dispose_queue(old.queue)
            return
        self._respawn_times.append(now)
        faults.hit("pool.respawn")
        self._spawn(worker_id)
        self.respawns += 1
        if old is not None:
            self._dispose_queue(old.queue)

    def _fail_pending(self, worker_id: int, message: str,
                      exc_type: type = WorkerCrashedError) -> None:
        """Error out every future assigned to ``worker_id``."""
        with self._lock:
            doomed = [rid for rid, (_, wid) in self._pending.items()
                      if wid == worker_id]
            futures = [self._pending.pop(rid)[0] for rid in doomed]
            for rid in doomed:
                self._leases.pop(rid, None)
                self._dispatched.pop(rid, None)
        for future in futures:
            if not future.done():
                future.set_exception(exc_type(message))

    # ------------------------------------------------------------------
    def stats(self, timeout: Optional[float] = 5.0
              ) -> List[Dict[str, Any]]:
        """Per-worker identity/counter dicts, ordered by worker id.

        A worker that cannot answer — mid-respawn, hung, crashed, or
        just slow — is reported as a placeholder row with
        ``"alive": False`` and ``"unresponsive": True`` instead of
        being dropped or failing the scrape, so ``/metrics`` always
        shows one row per pool slot and never under-reports pool
        size. The timeout is deliberately short: a scrape must not
        hang behind a wedged worker (the watchdog deals with those).
        """
        futures = self.broadcast("stats", None)
        results: List[Dict[str, Any]] = []
        for worker_id in range(self.workers):
            future = futures.get(worker_id)
            if future is None:
                results.append({
                    "worker": worker_id, "alive": False,
                    "unresponsive": True,
                    "error": "slot removed by the crash-storm "
                             "breaker"})
                continue
            try:
                payload = future.result(timeout=timeout)
                payload["alive"] = True
                payload["unresponsive"] = False
            except (WorkerError, FutureTimeout) as error:
                payload = {"worker": worker_id, "alive": False,
                           "unresponsive": True, "error": str(error)}
            results.append(payload)
        return results
