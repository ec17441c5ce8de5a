"""A :class:`~repro.engine.QueryEngine` whose queries run on processes.

CPython threads cannot run the enumeration kernels in parallel (the
GIL serializes them), so the service's thread pool only ever overlaps
I/O. :class:`ParallelQueryEngine` is a ``QueryEngine`` subclass that
ships each materialized query to a :class:`~repro.parallel.pool.
WorkerPool` whose workers are separate processes, each serving the
same immutable snapshot. N cores then give ~N× aggregate COMM-all
throughput.

Division of labor:

* **the parent's result cache is the pool server's only one**: every
  materialized query takes the engine's one path (``execute``,
  ``run_all``, ``top_k``, ``execute_batch`` and ``warm`` are all
  inherited), which looks each spec up there, counting the hit, miss
  or error into the request's context; an exact repeat, a smaller-k
  slice of a cached ranked prefix or a complete COMM-all entry is
  answered with no pool task. The one step this class overrides is
  how a miss is computed (``_miss``): it is queued on a worker, and a
  batch queues every miss before it awaits any;
* **workers** compute the rest (misses and k-extensions, from the
  start) and keep only their projection cache and Dijkstra memo.
  Results come back as the same :class:`~repro.core.community.
  Community` dataclasses an in-process engine returns, and the
  worker's stage timings/counters merge into the caller's
  :class:`~repro.engine.context.QueryContext`. A worker's answer is
  installed in the parent's cache only when the state id the worker
  reported when it started the task (see :attr:`~repro.engine.engine.
  QueryEngine.state_id`) equals the parent's when the answer arrives,
  so a state with no id (a delta without a WAL) caches nothing;
* **the parent** is itself the engine, so everything stateful or
  cheap is inherited and stays in-process: PDk session streams
  (``top_k_stream`` — leases hold generators, which cannot cross a
  process boundary; they attach to the same cache entries, and past
  a worker's prefix they rebuild a stream on the parent's state),
  lazy ``iter_all`` streams, projections requested directly, label
  lookups (``dbg``), and the generation/snapshot identity the
  session manager stale-checks against;
* ``apply_delta`` and ``swap_snapshot`` do the parent's half through
  the inherited method, then broadcast the same operation to every
  worker.

Hot swap: :meth:`~ParallelQueryEngine.swap_snapshot` swaps the parent
first (new queries immediately see the new generation), then
broadcasts a ``reload`` control task to every worker. Control tasks
ride the same per-worker queues as queries, so each worker finishes
its in-flight work, reloads, and keeps going — no query is dropped,
and the next ``stats`` broadcast shows every worker on the new
snapshot id.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.community import Community
from repro.engine.context import QueryContext
from repro.engine.engine import Captured, QueryEngine
from repro.engine.spec import QuerySpec
from repro.exceptions import SnapshotError, WorkerError
from repro.parallel.pool import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_RESPAWNS,
    DEFAULT_RESPAWN_WINDOW,
    WorkerPool,
)
from repro.snapshot.snapshot import Snapshot, load_snapshot
from repro.snapshot.store import locate_snapshot
from repro.wal.log import replay
from repro.wal.records import delta_to_wire

#: Default number of worker processes.
DEFAULT_POOL_WORKERS = 2


def _share_ids(communities: List[Community]) -> List[Community]:
    """``communities`` relabelled through one identity dict, so each
    node id is one int object, as in-process: unpickled tuples share
    none. (Every id of a community is among its ``nodes``.)"""
    ids = {u: u for community in communities for u in community.nodes}
    return [community.relabel(ids) for community in communities]


class ParallelQueryEngine(QueryEngine):
    """A :class:`QueryEngine` that executes queries on a process pool;
    ``result_cache_bytes`` sizes the parent's cache, the only one."""

    #: The parent enumerates nothing: a ``k`` beyond a cached prefix
    #: is a miss, computed by a worker.
    _resumes_frontier = False

    def __init__(self, source: Union[str, Path],
                 workers: int = DEFAULT_POOL_WORKERS,
                 lease_seconds: Optional[float] = DEFAULT_LEASE_SECONDS,
                 max_respawns: int = DEFAULT_MAX_RESPAWNS,
                 respawn_window: float = DEFAULT_RESPAWN_WINDOW,
                 result_cache_bytes: Optional[int] = None,
                 wal_path: Optional[Union[str, Path, Any]] = None
                 ) -> None:
        self.path = locate_snapshot(source)
        #: The snapshot everyone (parent + workers) currently serves;
        #: kept so a failed swap can roll back to it. All N+1
        #: processes map the same sections, so they share one
        #: page-cache copy.
        self._active = load_snapshot(self.path)
        super().__init__(self._active.dbg, self._active.index,
                         result_cache_bytes=result_cache_bytes)
        self._adopt(self._active)
        #: The delta WAL (an open ``WriteAheadLog`` or a path); the
        #: parent replays it here, workers replay the file themselves
        #: on every (re)spawn and reload — only its *path* crosses the
        #: process boundary.
        self.wal = wal_path
        pool_wal = (str(getattr(wal_path, "path", wal_path))
                    if wal_path is not None else None)
        self.pool = WorkerPool(self.path, workers=workers,
                               lease_seconds=lease_seconds,
                               max_respawns=max_respawns,
                               respawn_window=respawn_window,
                               wal_path=pool_wal)
        if wal_path is not None:
            # The pool has no workers yet, so these deltas broadcast
            # to nobody; each worker replays the log when it spawns.
            replay(self, wal_path)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, wait_ready: bool = True) -> "ParallelQueryEngine":
        """Start the pool (blocks until workers loaded the snapshot)."""
        self.pool.start(wait_ready=wait_ready)
        return self

    def close(self) -> None:
        """Shut the pool down; the parent needs no teardown."""
        self.pool.shutdown()

    def __enter__(self) -> "ParallelQueryEngine":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution — a miss ships to the pool
    # ------------------------------------------------------------------
    def _miss(self, spec: QuerySpec, ctx: QueryContext,
              captured: Captured, key: Optional[str]
              ) -> Callable[[], List[Community]]:
        """Queue ``spec`` on a worker, which computes it from the
        start; the returned call awaits the answer, merges the
        worker's stats into ``ctx`` and offers the answer to the
        parent's cache (:meth:`_install`)."""
        future = self.pool.submit("query", spec)

        def finish() -> List[Community]:
            communities, timings, counters = future.result()
            ctx.merge(QueryContext(timings, counters))
            return self._install(spec, key, list(communities),
                                 future.state)

        return finish

    def _install(self, spec: QuerySpec, key: Optional[str],
                 communities: List[Community],
                 state: Optional[str]) -> List[Community]:
        """Offer a worker's answer, computed on ``state``, to the
        parent's cache under ``key``, ids shared — only when the
        parent serves that state now; returns the answer to serve
        (``ResultCache.offer``)."""
        if key is None or state is None:
            return communities
        generation, current = self._state()
        if state != current:
            return communities
        return self.results.offer(
            key, generation, _share_ids(communities),
            complete=spec.mode != "topk" or len(communities) < spec.k)

    # ------------------------------------------------------------------
    # the parent's half, then every worker's
    # ------------------------------------------------------------------
    def apply_delta(self, delta: Any, banks_reweight: bool = False,
                    lsn: Optional[int] = None):
        """Apply a delta on the parent, then fan it to every worker.

        The broadcast ships the delta's wire form tagged with its LSN;
        each worker applies it through the same idempotent-per-LSN
        path, so a worker that *also* replays the WAL (a respawn
        racing this broadcast) converges rather than double-applies.

        A worker that fails the broadcast is **kicked** when a WAL is
        attached — the monitor respawns it and the fresh incarnation
        replays the full suffix, converging without bookkeeping. With
        no WAL there is no way to bring a diverged worker back, so
        the failure propagates as :class:`~repro.exceptions.
        WorkerError` instead of leaving the pool split-brained.
        """
        result = super().apply_delta(delta, banks_reweight, lsn=lsn)
        payload = (lsn, delta_to_wire(delta), bool(banks_reweight))
        failures: Dict[int, Exception] = {}
        for worker_id, future in self.pool.broadcast(
                "delta", payload).items():
            try:
                future.result()
            except Exception as error:  # noqa: BLE001 — handled per
                # worker below (kick or propagate).
                failures[worker_id] = error
        if failures:
            if self.wal is not None:
                for worker_id in sorted(failures):
                    self.pool.kick(worker_id)
            else:
                detail = "; ".join(
                    f"worker {wid}: {error}"
                    for wid, error in sorted(failures.items()))
                raise WorkerError(
                    f"delta broadcast failed on "
                    f"{len(failures)}/{self.pool.workers} workers "
                    f"with no WAL to replay from ({detail}); "
                    f"restart the service to reconverge")
        return result

    def swap_snapshot(self, snapshot: Snapshot) -> bool:
        """Swap the parent, then fan the reload out to every worker.

        Blocks until each worker acknowledged the reload; because the
        control task queues behind in-flight queries, nothing is
        dropped. Returns whether the parent actually changed artifact
        (a content-identical reload is a no-op everywhere).

        **All-or-nothing:** when any worker fails its reload (corrupt
        or vanished snapshot directory, worker-side load error), the
        parent swaps back to the previous snapshot, every worker is
        re-pointed at it, and :class:`~repro.exceptions.SnapshotError`
        is raised — the pool never serves two generations at once,
        and a failed ``POST /admin/reload`` keeps answering from the
        old graph. With a WAL attached, each worker's reload replays
        the log onto the previous snapshot, and so does the parent,
        so every process ends in the same delta state; without one,
        every process serves the previous snapshot as published. The
        pool's ``snapshot_path`` tracks every swap and rollback, so a
        worker the monitor respawns (crash, watchdog kill) always
        loads the currently adopted artifact too.
        """
        previous = self._active
        changed = super().swap_snapshot(snapshot)
        # Re-point respawns *before* the broadcast: a worker the
        # monitor replaces from here on must load the artifact being
        # adopted, never the one the pool was constructed with —
        # otherwise a single respawn would put two generations in
        # service at once.
        self.pool.snapshot_path = str(snapshot.path)
        failures: Dict[int, Exception] = {}
        for worker_id, future in self.pool.broadcast(
                "reload", str(snapshot.path)).items():
            try:
                future.result()
            except Exception as error:  # noqa: BLE001 — collected,
                # the swap is rolled back below.
                failures[worker_id] = error
        if failures:
            self.pool.snapshot_path = str(previous.path)
            super().swap_snapshot(previous)
            for future in self.pool.broadcast(
                    "reload", str(previous.path)).values():
                try:
                    future.result()
                except Exception:  # noqa: BLE001 — best effort: a
                    # worker that failed both ways answers from its
                    # old in-memory engine anyway.
                    pass
            if self.wal is not None:
                # The workers' copies of these LSNs are no-ops: each
                # replayed the log in its reload above.
                replay(self, self.wal)
            detail = "; ".join(
                f"worker {wid}: {error}"
                for wid, error in sorted(failures.items()))
            raise SnapshotError(
                f"reload to {snapshot.id} failed on "
                f"{len(failures)}/{self.pool.workers} workers "
                f"({detail}); rolled back to {previous.id}")
        self._active = snapshot
        return changed

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Configured pool size."""
        return self.pool.workers

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Identity + counters per worker (see ``/metrics``)."""
        return self.pool.stats()
