"""Admission control: a bounded worker pool that sheds, not queues.

A community query is CPU-bound (Dijkstra + Lawler enumeration), so
letting the transport (:class:`~repro.service.wire.Transport`) run
one query per connection thread would melt under load — every request admitted, none finishing. The
:class:`AdmissionController` bounds both dimensions:

* **workers** — at most this many queries execute concurrently;
* **queue_depth** — at most this many admitted-but-waiting jobs; a
  ``submit`` past that is *shed immediately* with
  :class:`~repro.service.errors.Overloaded` (HTTP 429), which is the
  whole point — under saturation the client learns in microseconds,
  not after a timeout.

Every job also carries a **deadline** (monotonic-clock instant). A job
whose deadline passed while it sat in the queue is dropped by the
worker without running
(:class:`~repro.service.errors.DeadlineExceeded`, HTTP 503), and
:meth:`AdmissionController.run` stops waiting at the deadline even if
the job is still executing. The remaining budget at execution time is
handed to the job callable, which the server maps onto
``QuerySpec.budget_seconds`` — the same deadline machinery the BU/TD
baselines already honour.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import QueryError
from repro.service.errors import (
    DeadlineExceeded,
    Overloaded,
    ShuttingDown,
)

#: Workers per controller unless the caller says otherwise.
DEFAULT_WORKERS = 4

#: Waiting jobs per controller unless the caller says otherwise.
DEFAULT_QUEUE_DEPTH = 16


@dataclass
class AdmissionStats:
    """Lifetime traffic counters for one controller."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Flat metric view (service ``/metrics`` consumes this)."""
        return {
            "admission_submitted": float(self.submitted),
            "admission_completed": float(self.completed),
            "admission_failed": float(self.failed),
            "admission_shed_queue_full": float(self.shed_queue_full),
            "admission_shed_deadline": float(self.shed_deadline),
        }


class _Job:
    """One admitted unit of work: callable + future + deadline."""

    __slots__ = ("fn", "future", "deadline_at")

    def __init__(self, fn: Callable[[Optional[float]], Any],
                 future: "Future[Any]",
                 deadline_at: Optional[float]) -> None:
        self.fn = fn
        self.future = future
        self.deadline_at = deadline_at


class AdmissionController:
    """Bounded concurrency + bounded queue + per-job deadlines.

    Job callables receive one positional argument: the **remaining
    budget in seconds** at the moment execution starts (``None`` for
    no deadline). Construction starts the worker threads (daemonic, so
    an un-shutdown controller never blocks interpreter exit);
    :meth:`shutdown` drains them deterministically.
    """

    def __init__(self, workers: int = DEFAULT_WORKERS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 default_deadline: Optional[float] = None) -> None:
        if workers <= 0:
            raise QueryError(
                f"workers must be positive, got {workers}")
        if queue_depth <= 0:
            raise QueryError(
                f"queue_depth must be positive, got {queue_depth}")
        self.workers = workers
        self.queue_depth = queue_depth
        self.default_deadline = default_deadline
        self.stats = AdmissionStats()
        self._queue: "queue.Queue[Optional[_Job]]" = queue.Queue(
            maxsize=queue_depth)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._closed = False
        self._draining = False
        self._threads: List[threading.Thread] = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-admission-{i}")
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[[Optional[float]], Any],
               deadline_seconds: Optional[float] = None
               ) -> "Future[Any]":
        """Admit a job, or shed it right now.

        Raises :class:`Overloaded` when the queue is full and
        :class:`DeadlineExceeded` when the deadline is already
        non-positive — both *before* consuming a queue slot.
        """
        if self._draining:
            raise ShuttingDown(
                "service is draining for shutdown; retry elsewhere")
        if self._closed:
            raise Overloaded("service is shutting down")
        if deadline_seconds is None:
            deadline_seconds = self.default_deadline
        deadline_at: Optional[float] = None
        if deadline_seconds is not None:
            if deadline_seconds <= 0:
                with self._lock:
                    self.stats.shed_deadline += 1
                raise DeadlineExceeded(
                    f"deadline of {deadline_seconds:g}s already spent")
            deadline_at = time.monotonic() + deadline_seconds
        future: "Future[Any]" = Future()
        try:
            self._queue.put_nowait(_Job(fn, future, deadline_at))
        except queue.Full:
            with self._lock:
                self.stats.shed_queue_full += 1
            raise Overloaded(
                f"work queue full ({self.queue_depth} waiting, "
                f"{self.workers} running)") from None
        with self._lock:
            self.stats.submitted += 1
        return future

    def run(self, fn: Callable[[Optional[float]], Any],
            deadline_seconds: Optional[float] = None) -> Any:
        """Admit, wait, and return the job's result.

        Blocks at most until the deadline; a job still queued at that
        point is cancelled, a job still *running* is abandoned (its
        worker finishes into a dropped future) and
        :class:`DeadlineExceeded` is raised either way.
        """
        future = self.submit(fn, deadline_seconds)
        if deadline_seconds is None:
            deadline_seconds = self.default_deadline
        try:
            if deadline_seconds is None:
                return future.result()
            return future.result(timeout=deadline_seconds)
        except FutureTimeout:
            future.cancel()
            with self._lock:
                self.stats.shed_deadline += 1
            raise DeadlineExceeded(
                f"no answer within {deadline_seconds:g}s") from None

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Jobs admitted but not yet started (approximate, racy)."""
        return self._queue.qsize()

    @property
    def in_flight(self) -> int:
        """Jobs currently executing on a worker."""
        with self._lock:
            return self._in_flight

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float) -> bool:
        """Stop admitting, then wait for queued + running jobs.

        New submissions shed immediately with :class:`ShuttingDown`
        (503 + ``Retry-After``); work already admitted keeps running.
        Returns ``True`` when everything finished inside ``timeout``
        seconds, ``False`` when the drain deadline passed with work
        still in flight — the caller then tears down hard
        (:meth:`shutdown`), which fails the leftovers.
        """
        self._draining = True
        deadline = time.monotonic() + max(0.0, timeout)
        while time.monotonic() < deadline:
            if self._queue.qsize() == 0 and self.in_flight == 0:
                return True
            time.sleep(0.02)
        return self._queue.qsize() == 0 and self.in_flight == 0

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting work and join the workers.

        Queued-but-unstarted jobs are dropped (their futures get
        :class:`Overloaded`), mirroring what a restart would do.
        """
        if self._closed:
            return
        self._closed = True
        # Drain whatever is still waiting, then post one sentinel per
        # worker so each exits its loop.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not None:
                job.future.set_exception(
                    Overloaded("service shut down before execution"))
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            now = time.monotonic()
            if job.deadline_at is not None and now >= job.deadline_at:
                with self._lock:
                    self.stats.shed_deadline += 1
                job.future.set_exception(DeadlineExceeded(
                    "deadline expired while queued"))
                continue
            if not job.future.set_running_or_notify_cancel():
                continue          # run() already gave up on this job
            remaining = (None if job.deadline_at is None
                         else job.deadline_at - now)
            with self._lock:
                self._in_flight += 1
            try:
                result = job.fn(remaining)
            except BaseException as error:  # noqa: BLE001 — relayed
                with self._lock:
                    self._in_flight -= 1
                    self.stats.failed += 1
                job.future.set_exception(error)
            else:
                with self._lock:
                    self._in_flight -= 1
                    self.stats.completed += 1
                job.future.set_result(result)
