"""A drop-in engine facade that executes queries on a process pool.

CPython threads cannot run the enumeration kernels in parallel (the
GIL serializes them), so the service's thread pool only ever overlaps
I/O. :class:`ParallelQueryEngine` keeps the :class:`~repro.engine.
QueryEngine` surface the service already programs against — same
``execute``/``run_all``/``top_k``, same ``generation``/``snapshot_id``
/``swap_snapshot``, same ``top_k_stream`` for PDk sessions — but ships
each materialized query to a :class:`~repro.parallel.pool.WorkerPool`
whose workers are separate processes, each serving the same immutable
snapshot. N cores then give ~N× aggregate COMM-all throughput.

Division of labor:

* **workers** run ``execute`` (COMM-all / COMM-k) — the CPU-bound,
  stateless bulk of the traffic. Results come back as the same
  :class:`~repro.core.community.Community` dataclasses a local engine
  returns, and the worker's stage timings/counters are merged into
  the caller's :class:`~repro.engine.context.QueryContext`, so
  ``/metrics`` aggregation is unchanged;
* **the parent's local engine** serves everything stateful or cheap:
  PDk session streams (leases hold generators, which cannot cross a
  process boundary), projections requested directly, label lookups
  (``dbg``), and the generation/snapshot identity the session manager
  stale-checks against.

Hot swap: :meth:`swap_snapshot` swaps the local engine first (new
queries immediately see the new generation), then broadcasts a
``reload`` control task to every worker. Control tasks ride the same
per-worker queues as queries, so each worker finishes its in-flight
work, reloads, and keeps going — no query is dropped, and the next
``stats`` broadcast shows every worker on the new snapshot id.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.core.community import Community
from repro.engine.context import QueryContext, ensure_context
from repro.engine.engine import QueryEngine
from repro.engine.spec import QuerySpec
from repro.exceptions import QueryError, SnapshotError, WorkerError
from repro.parallel.pool import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_RESPAWNS,
    DEFAULT_RESPAWN_WINDOW,
    WorkerPool,
)
from repro.snapshot.snapshot import Snapshot, load_snapshot
from repro.snapshot.store import locate_snapshot

#: Default number of worker processes.
DEFAULT_POOL_WORKERS = 2


class ParallelQueryEngine:
    """``QueryEngine``-shaped facade over a process worker pool."""

    def __init__(self, source: Union[str, Path],
                 workers: int = DEFAULT_POOL_WORKERS,
                 mp_method: Optional[str] = None,
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
        #: The delta WAL (an open ``WriteAheadLog`` or a path); the
        #: parent replays it here, workers replay the file themselves
        #: on every (re)spawn — only its *path* crosses the process
        #: boundary.
        self.wal = wal_path
        self.local = QueryEngine.from_snapshot(
            self._active, result_cache_bytes=result_cache_bytes,
            wal_path=wal_path)
        pool_wal = (str(getattr(wal_path, "path", wal_path))
                    if wal_path is not None else None)
        self.pool = WorkerPool(self.path, workers=workers,
                               mp_method=mp_method,
                               lease_seconds=lease_seconds,
                               max_respawns=max_respawns,
                               respawn_window=respawn_window,
                               result_cache_bytes=result_cache_bytes,
                               wal_path=pool_wal)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, wait_ready: bool = True) -> "ParallelQueryEngine":
        """Start the pool (blocks until workers loaded the snapshot)."""
        self.pool.start(wait_ready=wait_ready)
        return self

    def close(self) -> None:
        """Shut the pool down; the local engine needs no teardown."""
        self.pool.shutdown()

    def __enter__(self) -> "ParallelQueryEngine":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # identity / stateful surface — delegated to the local engine
    # ------------------------------------------------------------------
    @property
    def dbg(self):
        """The served database graph (labels, serialization)."""
        return self.local.dbg

    @property
    def cache(self):
        """The parent-side projection cache (sessions/projections)."""
        return self.local.cache

    @property
    def results(self):
        """The parent-side result cache (sessions and ``/healthz``;
        workers keep their own — see :meth:`worker_stats`)."""
        return self.local.results

    @property
    def generation(self) -> str:
        """Generation token — the snapshot id while unmodified."""
        return self.local.generation

    @property
    def generation_epoch(self) -> int:
        """Monotonic index-change count of the local engine."""
        return self.local.generation_epoch

    @property
    def snapshot_id(self) -> Optional[str]:
        """Id of the snapshot the parent (and workers) serve."""
        return self.local.snapshot_id

    @property
    def snapshot_loaded_at(self) -> Optional[float]:
        """Epoch seconds of the last snapshot load/swap."""
        return self.local.snapshot_loaded_at

    @property
    def partition(self) -> Optional[Dict[str, Any]]:
        """Shard provenance of the served snapshot (see
        :attr:`QueryEngine.partition`)."""
        return self.local.partition

    @property
    def index(self):
        """The local engine's community index."""
        return self.local.index

    @property
    def dirty(self) -> bool:
        """True when deltas diverged the fleet from its snapshot."""
        return self.local.dirty

    @property
    def deltas_applied(self) -> int:
        """Deltas applied since the last snapshot load/swap."""
        return self.local.deltas_applied

    @property
    def base_snapshot_id(self) -> Optional[str]:
        """The snapshot the current delta state grew from."""
        return self.local.base_snapshot_id

    @property
    def applied_lsn(self) -> int:
        """Highest WAL LSN the parent engine has applied."""
        return self.local.applied_lsn

    def project(self, *args: Any, **kwargs: Any):
        """Projection on the parent (sessions and direct callers)."""
        return self.local.project(*args, **kwargs)

    def top_k_stream(self, *args: Any, **kwargs: Any):
        """PDk streams stay in-process — leases hold live iterators."""
        return self.local.top_k_stream(*args, **kwargs)

    # ------------------------------------------------------------------
    # execution — shipped to the pool
    # ------------------------------------------------------------------
    def execute(self, spec: QuerySpec,
                context: Optional[QueryContext] = None
                ) -> List[Community]:
        """Run one spec on a pool worker; merge its stats locally."""
        future = self.pool.submit("query", spec)
        communities, timings, counters = future.result()
        self._merge(ensure_context(context), timings, counters)
        return list(communities)

    def run_all(self, spec: QuerySpec,
                context: Optional[QueryContext] = None
                ) -> List[Community]:
        """Materialized COMM-all on a worker."""
        if spec.mode != "all":
            raise QueryError(
                f"run_all needs an 'all' spec, got {spec.mode!r}")
        return self.execute(spec, context)

    def top_k(self, spec: QuerySpec,
              context: Optional[QueryContext] = None
              ) -> List[Community]:
        """COMM-k on a worker."""
        if spec.mode != "topk":
            raise QueryError(
                f"top_k needs a 'topk' spec, got {spec.mode!r}")
        return self.execute(spec, context)

    def iter_all(self, spec: QuerySpec,
                 context: Optional[QueryContext] = None
                 ) -> Iterator[Community]:
        """API parity with ``QueryEngine.iter_all`` (materialized —
        answers cross a process boundary, so laziness is gone)."""
        return iter(self.run_all(spec, context))

    def execute_batch(self, specs: Sequence[QuerySpec],
                      contexts: Optional[Sequence[QueryContext]] = None
                      ) -> List[List[Community]]:
        """Fan a list of specs across the pool; results in order.

        All specs are queued before any result is awaited, so the
        batch runs on as many workers (cores) as the pool has. With
        ``contexts`` given (one per spec), each query's worker-side
        stats merge into its own context.
        """
        futures = [self.pool.submit("query", spec) for spec in specs]
        results: List[List[Community]] = []
        for position, future in enumerate(futures):
            communities, timings, counters = future.result()
            if contexts is not None:
                self._merge(contexts[position], timings, counters)
            results.append(list(communities))
        return results

    def warm(self, specs: Sequence[QuerySpec]) -> int:
        """Pre-warm every result cache in the pool (and the parent's).

        The specs are broadcast as one ``warm`` control task per
        worker — each worker executes them into its private cache and
        reports only a count, so warming N workers costs no community
        serialization. Returns the parent-side warmed count (the
        fleet's caches are private; a dead worker is skipped, not
        fatal — warming is an optimization, never a failure source).
        """
        specs = list(specs)
        warmed = self.local.warm(specs)
        for future in self.pool.broadcast("warm", specs).values():
            try:
                future.result()
            except Exception:  # noqa: BLE001 — best effort: a worker
                # that failed to warm still answers, just cold.
                pass
        return warmed

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
        from repro.wal.records import delta_to_wire
        result = self.local.apply_delta(delta, banks_reweight,
                                        lsn=lsn)
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

    @staticmethod
    def _merge(context: QueryContext, timings: Dict[str, float],
               counters: Dict[str, int]) -> None:
        """Fold a worker's stage stats into a parent-side context."""
        for name, seconds in timings.items():
            context.add_time(name, seconds)
        for name, value in counters.items():
            context.count(name, value)

    # ------------------------------------------------------------------
    # snapshot lifecycle
    # ------------------------------------------------------------------
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
        old graph. The pool's ``snapshot_path`` tracks every swap and
        rollback, so a worker the monitor respawns (crash, watchdog
        kill) always loads the currently adopted artifact too.
        """
        previous = self._active
        changed = self.local.swap_snapshot(snapshot)
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
            self.local.swap_snapshot(previous)
            for future in self.pool.broadcast(
                    "reload", str(previous.path)).values():
                try:
                    future.result()
                except Exception:  # noqa: BLE001 — best effort: a
                    # worker that failed both ways answers from its
                    # old in-memory engine anyway.
                    pass
            detail = "; ".join(
                f"worker {wid}: {error}"
                for wid, error in sorted(failures.items()))
            raise SnapshotError(
                f"reload to {snapshot.id} failed on "
                f"{len(failures)}/{self.pool.workers} workers "
                f"({detail}); rolled back to {previous.id}")
        self._active = snapshot
        return changed

    def load_snapshot(self, path: Union[str, Path],
                      verify: bool = True) -> Snapshot:
        """Load ``path`` and swap everyone onto it."""
        snapshot = load_snapshot(path, verify=verify)
        self.swap_snapshot(snapshot)
        return snapshot

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
