"""The query engine: plan, project (with caching), run, translate.

:class:`QueryEngine` is the execution layer between the inverted
indexes and the paper's algorithms. One engine owns

* the database graph and (optionally) its
  :class:`~repro.text.inverted_index.CommunityIndex`;
* an :class:`~repro.engine.registry.AlgorithmRegistry` of backends
  sharing one invocation contract;
* a :class:`~repro.engine.cache.ProjectionCache` so repeated and
  interactive ``(keyword set, Rmax)`` queries skip Algorithm 6;
* a :class:`~repro.engine.results.ResultCache` so a repeated query
  skips the enumeration too — exact repeats are pure lookups,
  smaller-k queries slice the cached ranked prefix, larger-k queries
  resume the cached frontier and compute only the tail;
* a **generation** token, changed on every index change
  (``build_index``, ``apply_delta``, assignment, or snapshot swap),
  which stale-checks every cache entry and every open PDk session.

The generation is an opaque string, not a counter: in-memory changes
produce process-local ``g<epoch>`` tokens, while
:meth:`QueryEngine.swap_snapshot` adopts the *snapshot id* — a durable
content hash — so two workers serving the same published snapshot
agree on the generation, and swapping to a content-identical snapshot
is a no-op (the projection cache stays warm, open sessions stay
valid).

Queries capture ``(graph, index, generation, owned)`` once at entry,
so a concurrent :meth:`~QueryEngine.swap_snapshot` never mixes
artifacts mid-query — in-flight queries finish on the graph they
started on. Every materialized answer takes one path: capture, look
the spec up in the result cache on that capture, compute a miss
(:meth:`~QueryEngine._miss`, the one step a pool engine overrides)
and install it under the captured generation.

An engine serving one shard of a partitioned snapshot holds the
shard's *owned* node set (the snapshot's ``owned`` section). Every
query then restricts the first keyword's node list to owned nodes,
after projection and before any backend runs, so the shard
enumerates exactly the communities whose anchor ``c_1`` it owns (see
:mod:`repro.shard.partition`). The owned set is part of the snapshot
id, so the generation — and every cache key tagged with it — already
covers the restriction.

Execution is staged — resolve → project → enumerate → translate — and
each stage reports wall-clock and counters into the caller's
:class:`~repro.engine.context.QueryContext`, which is how both the
benchmark harness and ``repro.analysis`` observe a query now.

The :class:`~repro.core.search.CommunitySearch` facade is a thin
wrapper over this class; new infrastructure (sharding, batching,
async fan-out) should build against the engine directly.
"""

from __future__ import annotations

import functools
import threading
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.comm_all import resolve_keyword_nodes
from repro.core.community import Community
from repro.core.comm_k import TopKStream
from repro.core.cost import AggregateSpec
from repro.core.projection import ProjectionResult
from repro.core.projection import project as run_projection
from repro.engine.cache import DEFAULT_CAPACITY, ProjectionCache
from repro.engine.context import QueryContext, ensure_context
from repro.engine.registry import REGISTRY, AlgorithmRegistry
from repro.engine.results import (
    DEFAULT_RESULT_CACHE_BYTES,
    CachedStream,
    ResultCache,
    ResultEntry,
    result_key,
)
from repro.engine.spec import QuerySpec
from repro.exceptions import QueryError, SnapshotFormatError, WorkerError
from repro.graph.database_graph import DatabaseGraph
from repro.snapshot.snapshot import Snapshot
from repro.snapshot.snapshot import load_snapshot as _load_snapshot
from repro.text.inverted_index import CommunityIndex
from repro.text.maintenance import GraphDelta, apply_delta


def translate_community(community: Community,
                        projection: ProjectionResult,
                        dbg: DatabaseGraph) -> Community:
    """Projected ids -> ``G_D`` ids, re-inducing edges against ``G_D``.

    Uses the projection's memoized
    :attr:`~repro.core.projection.ProjectionResult.relabel_map`, so
    the ``{new: old}`` dict is built once per projection rather than
    once per answer. Edge re-induction restores Definition 2.1 exactly
    (see :mod:`repro.core.projection` for why ``E'`` may under-cover).
    """
    relabeled = community.relabel(projection.relabel_map)
    return Community(
        core=relabeled.core,
        cost=relabeled.cost,
        centers=relabeled.centers,
        pnodes=relabeled.pnodes,
        nodes=relabeled.nodes,
        edges=tuple(dbg.graph.induced_edges(relabeled.nodes)),
    )


#: One consistent observation of the engine state a query runs on:
#: ``(graph, index, generation, owned)``.
Captured = Tuple[DatabaseGraph, Optional[CommunityIndex], str,
                 Optional[frozenset]]


class QueryEngine:
    """Executes :class:`~repro.engine.spec.QuerySpec` s on one graph."""

    #: Whether a result-cache lookup may resume a cached frontier to
    #: serve a larger ``k``. A pool's parent enumerates nothing, so it
    #: sends such a ``k`` to a worker instead.
    _resumes_frontier = True

    #: The worker pool queries run on; an in-process engine has none
    #: (see :class:`~repro.parallel.ParallelQueryEngine`).
    pool: Optional[Any] = None

    def __init__(self, dbg: DatabaseGraph,
                 index: Optional[CommunityIndex] = None,
                 registry: Optional[AlgorithmRegistry] = None,
                 cache: Optional[ProjectionCache] = None,
                 cache_capacity: int = DEFAULT_CAPACITY,
                 results: Optional[ResultCache] = None,
                 result_cache_bytes: Optional[int] = None) -> None:
        self.dbg = dbg
        self.registry = registry if registry is not None else REGISTRY
        self.cache = (cache if cache is not None
                      else ProjectionCache(cache_capacity))
        self.results = (results if results is not None
                        else ResultCache(
                            DEFAULT_RESULT_CACHE_BYTES
                            if result_cache_bytes is None
                            else result_cache_bytes))
        self._lock = threading.Lock()
        self._epoch = 0
        self._index = index
        self._snapshot_loaded_at: Optional[float] = None
        self._base_snapshot_id: Optional[str] = None
        self._partition: Optional[Dict[str, Any]] = None
        self._owned: Optional[frozenset] = None
        self._deltas_applied = 0
        self._applied_lsn = 0
        self._logged = True

    # ------------------------------------------------------------------
    # snapshot lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(cls, source: Union[str, Path, Snapshot],
                      verify: bool = True,
                      registry: Optional[AlgorithmRegistry] = None,
                      cache_capacity: int = DEFAULT_CAPACITY,
                      mode: str = "mmap",
                      result_cache_bytes: Optional[int] = None,
                      wal_path: Optional[Union[str, Path, Any]] = None
                      ) -> "QueryEngine":
        """An engine serving a snapshot, generation = snapshot id.

        A *path* source is loaded with
        :func:`repro.snapshot.load_snapshot`; an already-loaded
        :class:`Snapshot` source is adopted as-is. ``mode`` accepts
        only ``"mmap"``, the one way snapshots load (it stays for
        callers that still pass it); anything else raises
        :class:`ValueError`.

        ``wal_path`` (a path or an open
        :class:`~repro.wal.log.WriteAheadLog`) replays the log's
        pending deltas onto the freshly loaded snapshot before the
        engine is returned — the restart-recovery path; the engine
        comes up already converged with every acknowledged delta.
        """
        if mode != "mmap":
            raise ValueError(
                f"unknown snapshot mode {mode!r}; snapshots always "
                f"load memory-mapped ('mmap')")
        if isinstance(source, Snapshot):
            snapshot = source
        else:
            snapshot = _load_snapshot(source, verify=verify)
        engine = cls(snapshot.dbg, snapshot.index, registry=registry,
                     cache_capacity=cache_capacity,
                     result_cache_bytes=result_cache_bytes)
        engine._adopt(snapshot)
        if wal_path is not None:
            from repro.wal.log import replay
            replay(engine, wal_path)
        return engine

    def load_snapshot(self, path: Union[str, Path],
                      verify: bool = True) -> Snapshot:
        """Load the snapshot at ``path`` and swap the engine onto it."""
        snapshot = _load_snapshot(path, verify=verify)
        self.swap_snapshot(snapshot)
        return snapshot

    def swap_snapshot(self, snapshot: Snapshot) -> bool:
        """Atomically swap graph + index to a loaded snapshot.

        The swap happens under the engine lock, and queries capture
        their ``(graph, index, generation)`` once at entry — in-flight
        queries finish on the artifact they started with, new queries
        see the snapshot; nothing is dropped. The snapshot id becomes
        the generation, so cached projections and open PDk sessions
        from the previous artifact go stale (sessions observe 410
        Gone), while swapping to a *content-identical* snapshot is a
        no-op that keeps the cache warm. Returns ``True`` when the
        engine actually changed artifacts.
        """
        with self._lock:
            if self._generation_locked() == snapshot.id:
                self._snapshot_loaded_at = time.time()
                return False
            self._adopt(snapshot)
            self._epoch += 1
        self.cache.invalidate()
        self.results.invalidate()
        return True

    @staticmethod
    def check_adoptable(snapshot: Snapshot) -> None:
        """Refuse a shard snapshot that carries no ``owned`` section.

        Such a snapshot was partitioned by an earlier release: served
        unrestricted, its shard would enumerate communities other
        shards own, and a router merging one round per shard would
        return wrong answers. Raises
        :class:`~repro.exceptions.SnapshotFormatError`.
        """
        partition = snapshot.provenance.get("partition")
        if partition is not None and snapshot.owned is None:
            raise SnapshotFormatError(
                f"snapshot {snapshot.id} is shard "
                f"{partition.get('shard')} of {partition.get('of')} "
                f"but has no 'owned' section (it was partitioned by "
                f"an earlier release); re-run 'python -m repro "
                f"snapshot partition' and roll the fleet")

    def _adopt(self, snapshot: Snapshot) -> None:
        """Serve ``snapshot``'s graph and index under its identity:
        the snapshot id becomes the generation and the lineage base,
        and the delta counters restart from zero. Checks
        :meth:`check_adoptable` before changing anything."""
        self.check_adoptable(snapshot)
        self.dbg = snapshot.dbg
        self._index = snapshot.index
        self._base_snapshot_id = snapshot.id
        self._partition = snapshot.provenance.get("partition")
        self._owned = (frozenset(snapshot.owned.tolist())
                       if snapshot.owned is not None else None)
        self._deltas_applied = 0
        self._applied_lsn = 0
        self._logged = True
        self._snapshot_loaded_at = time.time()

    @property
    def snapshot_id(self) -> Optional[str]:
        """Id of the snapshot being served.

        ``None`` when the engine state was never loaded from a
        snapshot *or* has diverged from it (an in-memory
        ``build_index``/``apply_delta`` after the load).
        """
        with self._lock:
            return None if self._deltas_applied else self._base_snapshot_id

    def _generation_locked(self) -> str:
        """The base snapshot id while no delta has been applied, else
        ``g<epoch>``; caller holds the lock."""
        if self._deltas_applied or self._base_snapshot_id is None:
            return f"g{self._epoch}"
        return self._base_snapshot_id

    @property
    def snapshot_loaded_at(self) -> Optional[float]:
        """Epoch seconds of the last snapshot load/swap, if any."""
        return self._snapshot_loaded_at

    @property
    def partition(self) -> Optional[Dict[str, Any]]:
        """The ``partition`` provenance block of the loaded snapshot
        (shard id, shard count, source snapshot) when it is one shard
        of a partitioned build; ``None`` for a whole graph."""
        return self._partition

    @property
    def owned(self) -> Optional[frozenset]:
        """The node ids that may anchor a community on this engine
        (a shard's owned set); ``None`` when every node may."""
        return self._owned

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Identity and counters per pool worker (see ``/metrics``);
        an in-process engine has none."""
        return []

    # ------------------------------------------------------------------
    # index lifecycle — every change advances the generation
    # ------------------------------------------------------------------
    @property
    def index(self) -> Optional[CommunityIndex]:
        """The attached community index, if any."""
        return self._index

    @index.setter
    def index(self, index: Optional[CommunityIndex]) -> None:
        """Attach/replace the index, invalidating cached projections."""
        with self._lock:
            self._index = index
            self._epoch += 1
            self._base_snapshot_id = None
            self._deltas_applied = 0
            self._applied_lsn = 0
            self._logged = True
        self.cache.invalidate()
        self.results.invalidate()

    @property
    def generation(self) -> str:
        """Opaque token naming the engine's current artifact.

        Changes on every index change; equals the snapshot id while
        serving an unmodified snapshot. Tags every cache entry and
        every open session.
        """
        with self._lock:
            return self._generation_locked()

    @property
    def generation_epoch(self) -> int:
        """Monotonic count of index changes (numeric, for gauges)."""
        return self._epoch

    def build_index(self, radius: float,
                    keywords: Optional[Sequence[str]] = None
                    ) -> CommunityIndex:
        """Build and attach the two inverted indexes for radius R."""
        self.index = CommunityIndex.build(self.dbg, radius, keywords)
        return self.index

    def apply_delta(self, delta: GraphDelta,
                    banks_reweight: bool = False,
                    lsn: Optional[int] = None
                    ) -> Tuple[DatabaseGraph, CommunityIndex]:
        """Grow the graph, update the index, evict stale projections.

        Delegates to :func:`repro.text.maintenance.apply_delta`, then
        swaps in the grown graph/index. The assignment changes the
        generation, so projections computed before the delta can never
        be served again — the cache-correctness property the
        maintenance property tests assert.

        ``lsn`` is the delta's WAL sequence number; applying is
        idempotent per LSN (a delta at or below :attr:`applied_lsn`
        is a no-op), which makes the two delivery paths — a pool
        broadcast and a respawned worker's WAL replay — safe to race.
        The base snapshot lineage survives the delta: the engine is
        ``dirty`` (its generation no longer names a snapshot) but
        :attr:`base_snapshot_id` still records which artifact the
        deltas grew from, anchoring WAL replay and prune protection.
        """
        if lsn is not None and lsn <= self._applied_lsn:
            return self.dbg, self.index
        if self.index is None:
            raise QueryError(
                "apply_delta needs an attached index; call "
                "build_index(radius=...) first")
        new_dbg, new_index = apply_delta(self.index, delta,
                                         banks_reweight)
        with self._lock:
            # One step under the lock, as a snapshot swap is: a
            # concurrent capture sees the graph, the generation and
            # the lineage (base, count, LSN) all before or all after.
            self.dbg = new_dbg
            self._index = new_index
            self._epoch += 1
            self._deltas_applied += 1
            self._applied_lsn = lsn if lsn is not None else 0
            self._logged = self._logged and lsn is not None
        self.cache.invalidate()
        self.results.invalidate()
        return new_dbg, new_index

    @property
    def dirty(self) -> bool:
        """``True`` when in-memory deltas have diverged the engine
        from the snapshot it loaded (restart would lose them without
        a WAL)."""
        return self._deltas_applied > 0

    @property
    def deltas_applied(self) -> int:
        """Deltas applied since the last snapshot load/swap."""
        return self._deltas_applied

    @property
    def base_snapshot_id(self) -> Optional[str]:
        """The snapshot the current state grew from — still set when
        :attr:`snapshot_id` nulls out after a delta."""
        return self._base_snapshot_id

    @property
    def applied_lsn(self) -> int:
        """Highest WAL LSN applied (0 when none carried an LSN)."""
        return self._applied_lsn

    @property
    def state_id(self) -> Optional[str]:
        """Content identity of the state being served, or ``None``.

        :attr:`generation` is process-local after a delta (``g<epoch>``
        tokens); the state id names the content, so two processes
        report the same one only when they serve the same graph:

        * a clean engine: its snapshot id;
        * an engine made dirty by deltas that all carried WAL LSNs:
          ``<base snapshot id>+<last LSN applied>``;
        * any other engine (in-memory build, a delta with no LSN):
          ``None``, which equals nothing.

        A pool's parent installs a worker's answer in its result cache
        only when both report the same state id.
        """
        return self._state()[1]

    def _state(self) -> Tuple[str, Optional[str]]:
        """``(generation, state_id)``, read together under the lock."""
        with self._lock:
            if not self._deltas_applied:
                state = self._base_snapshot_id
            elif self._logged and self._base_snapshot_id is not None:
                state = f"{self._base_snapshot_id}+{self._applied_lsn}"
            else:
                state = None
            return self._generation_locked(), state

    def _capture(self) -> Captured:
        """One consistent ``(graph, index, generation, owned)``
        observation."""
        with self._lock:
            return self.dbg, self._index, self._generation_locked(), \
                self._owned

    # ------------------------------------------------------------------
    # projection (Algorithm 6), cached
    # ------------------------------------------------------------------
    def project(self, keywords: Sequence[str], rmax: float,
                context: Optional[QueryContext] = None,
                use_cache: bool = True) -> ProjectionResult:
        """The query's projection, from cache when possible.

        Counters: ``projection_cache_hits`` / ``projection_cache_misses``
        record cache traffic, ``projection_runs`` counts actual
        Algorithm 6 executions — a repeated query shows ``runs == 1``
        however many times it is asked.
        """
        _, index, generation, _ = self._capture()
        return self._project(index, generation, keywords, rmax,
                             context, use_cache)

    def _project(self, index: Optional[CommunityIndex],
                 generation: str, keywords: Sequence[str],
                 rmax: float, context: Optional[QueryContext],
                 use_cache: bool = True) -> ProjectionResult:
        """Projection against an already-captured index/generation."""
        ctx = ensure_context(context)
        if index is None:
            raise QueryError(
                "no index built; call build_index(radius=...) first or "
                "query with use_projection=False")
        with ctx.stage("resolve"):
            for keyword in keywords:
                index.require_keyword(keyword)
        key = (frozenset(keywords), float(rmax))
        if use_cache:
            cached = self.cache.get(key, generation)
            if cached is not None:
                ctx.count("projection_cache_hits")
                return cached
            ctx.count("projection_cache_misses")
        with ctx.stage("project"):
            projection = run_projection(index, list(keywords), rmax)
        ctx.count("projection_runs")
        if use_cache:
            self.cache.put(key, generation, projection)
        return projection

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def iter_all(self, spec: QuerySpec,
                 context: Optional[QueryContext] = None
                 ) -> Iterator[Community]:
        """Streaming COMM-all through the registered backend.

        Validation, projection and backend startup happen eagerly —
        only the enumeration itself is lazy — so a bad algorithm name
        or keyword fails at the call site, not on first ``next()``.
        """
        if spec.mode != "all":
            raise QueryError(
                f"iter_all needs an 'all' spec, got {spec.mode!r}")
        return self._iter_all(spec, ensure_context(context),
                              self._capture())

    def _iter_all(self, spec: QuerySpec, ctx: QueryContext,
                  captured: Captured) -> Iterator[Community]:
        """:meth:`iter_all` on the ``captured`` state."""
        backend = self.registry.get(spec.algorithm)
        graph, node_lists, projection, origin = \
            self._query_graph(spec, ctx, captured)
        results = iter(backend.run_all(
            graph, spec.keywords, spec.rmax, node_lists=node_lists,
            aggregate=spec.aggregate,
            budget_seconds=spec.budget_seconds, stats=ctx.baseline))
        return self._drive(results, projection, origin, ctx)

    def _drive(self, results: Iterator[Community],
               projection: Optional[ProjectionResult],
               origin: DatabaseGraph,
               ctx: QueryContext) -> Iterator[Community]:
        """Pump a backend iterator, timing enumerate/translate.

        ``origin`` is the full graph captured when the query started;
        translation must use it (not ``self.dbg``, which a concurrent
        snapshot swap may have replaced mid-enumeration).
        """
        while True:
            start = time.perf_counter()
            try:
                community = next(results)
            except StopIteration:
                ctx.add_time("enumerate", time.perf_counter() - start)
                return
            ctx.add_time("enumerate", time.perf_counter() - start)
            if projection is not None:
                with ctx.stage("translate"):
                    community = translate_community(
                        community, projection, origin)
            ctx.count("communities")
            yield community

    def run_all(self, spec: QuerySpec,
                context: Optional[QueryContext] = None
                ) -> List[Community]:
        """Materialized COMM-all, result-cached per generation."""
        if spec.mode != "all":
            raise QueryError(
                f"run_all needs an 'all' spec, got {spec.mode!r}")
        return self.execute(spec, context)

    def top_k(self, spec: QuerySpec,
              context: Optional[QueryContext] = None
              ) -> List[Community]:
        """COMM-k through the registered backend.

        Result-cached: an exact repeat of a cached spec is a pure
        lookup, a smaller ``k`` slices the cached ranked prefix, and
        in process a larger ``k`` resumes the retained stream (``pd``)
        to compute only the tail — see :mod:`repro.engine.results`.
        """
        if spec.mode != "topk":
            raise QueryError(
                f"top_k needs a 'topk' spec, got {spec.mode!r}")
        return self.execute(spec, context)

    def execute(self, spec: QuerySpec,
                context: Optional[QueryContext] = None
                ) -> List[Community]:
        """Run any spec to a materialized answer list."""
        return self.execute_batch([spec], [ensure_context(context)])[0]

    def execute_batch(self, specs: Sequence[QuerySpec],
                      contexts: Optional[Sequence[QueryContext]] = None
                      ) -> List[List[Community]]:
        """Answer specs; one answer list per spec, in order.

        Every spec starts down the one query path (:meth:`_answer`)
        before any is finished: in process a miss is computed as it
        starts, on a pool it is queued, so the batch runs on every
        worker. With ``contexts`` given (one per spec), each query's
        stats go to its own context.
        """
        if contexts is None:
            contexts = [QueryContext() for _ in specs]
        started = [self._answer(spec, context)
                   for spec, context in zip(specs, contexts)]
        return [finish() for finish in started]

    def top_k_stream(self, keywords: Sequence[str], rmax: float,
                     use_projection: Optional[bool] = None,
                     aggregate: AggregateSpec = "sum",
                     context: Optional[QueryContext] = None
                     ) -> CachedStream:
        """A resumable PDk stream (``take(k)`` then ``more(n)``): a
        :class:`~repro.engine.results.CachedStream` view over this
        query's result entry.

        With the result cache enabled the entry is the shared one: a
        session opened after a warm ``/query`` (or another session)
        serves the cached prefix with zero enumeration, and
        enlargements past the frontier extend the shared entry for
        everyone. With it disabled the view owns an entry that is
        never installed.
        """
        ctx = ensure_context(context)
        spec = QuerySpec(tuple(keywords), rmax, mode="all",
                         aggregate=aggregate,
                         use_projection=use_projection)
        captured = self._capture()
        _, _, generation, _ = captured
        key = result_key(spec.keywords, spec.rmax, "pd",
                         spec.aggregate, "topk")
        # An entry a pool worker's answer filled holds a prefix and no
        # stream; past that prefix it rebuilds one on this state.
        entry = self.results.attach(
            key, generation, ctx,
            resume=functools.partial(self._ranked, spec,
                                     captured=captured))
        if entry is None:
            entry = ResultEntry(key, generation,
                                *self._ranked(spec, ctx, captured))
            self.results.install(entry)
        return CachedStream(self.results, entry, context=ctx)

    def warm(self, specs: Sequence[QuerySpec]) -> int:
        """Run specs so this engine's result cache holds their
        answers; returns how many actually computed.

        Like :meth:`execute_batch`, every cacheable spec starts before
        any is finished, so a pool runs the misses concurrently. The
        rest were already warm or failed: a spec that raises
        :class:`~repro.exceptions.QueryError` (an unknown keyword
        after a reload) or :class:`~repro.exceptions.WorkerError` (a
        worker lost to a crash) is skipped — warming is an
        optimization, never a failure source.
        """
        skipped = (QueryError, WorkerError)
        started = []
        for spec in specs:
            if not self._result_cacheable(spec):
                continue
            context = QueryContext()
            try:
                started.append((context, self._answer(spec, context)))
            except skipped:
                continue
        warmed = 0
        for context, finish in started:
            try:
                finish()
            except skipped:
                continue
            if context.counter("result_cache_hits") == 0:
                warmed += 1
        return warmed

    # ------------------------------------------------------------------
    # the one lookup -> compute -> install path
    # ------------------------------------------------------------------
    def _answer(self, spec: QuerySpec, ctx: QueryContext
                ) -> Callable[[], List[Community]]:
        """Start answering ``spec``; returns the call that finishes it.

        Captures the engine state once and looks a cacheable spec up
        under that capture's generation — exactly one lookup, its hit,
        extension, miss or error counted into ``ctx`` (an uncacheable
        spec counts none). A miss goes to :meth:`_miss` with the same
        capture.
        """
        captured = self._capture()
        key = None
        if self._result_cacheable(spec):
            key = result_key(spec.keywords, spec.rmax, spec.algorithm,
                             spec.aggregate, spec.mode)
            served = self.results.fetch(
                key, captured[2],
                spec.k if spec.mode == "topk" else None, ctx,
                extend=self._resumes_frontier)
            if served is not None:
                return lambda: served
        return self._miss(spec, ctx, captured, key)

    def _miss(self, spec: QuerySpec, ctx: QueryContext,
              captured: Captured, key: Optional[str]
              ) -> Callable[[], List[Community]]:
        """Compute a spec the cache did not answer on ``captured`` and
        install it under ``key`` (``None``: not cacheable); returns
        the call that hands the answer over.

        In process the answer is computed here, so a batch looks its
        next spec up after this one is installed. The one step
        :class:`~repro.parallel.ParallelQueryEngine` overrides.
        """
        backend = self.registry.get(spec.algorithm)
        generation = captured[2]
        if spec.mode == "topk" and key is not None and backend.streams:
            # Enumerate through a resumable stream so the cache keeps
            # the frontier: a later, larger k computes only the tail.
            # Byte-identical to the registry's run_top_k — which is
            # literally TopKStream(...).take(k).
            entry = ResultEntry(key, generation,
                                *self._ranked(spec, ctx, captured))
            results = self.results.materialize(entry, spec.k, ctx)
            self.results.install(entry)
            return lambda: results
        if spec.mode == "all":
            results = list(self._iter_all(spec, ctx, captured))
        else:
            graph, node_lists, projection, origin = \
                self._query_graph(spec, ctx, captured)
            with ctx.stage("enumerate"):
                results = backend.run_top_k(
                    graph, spec.keywords, spec.k, spec.rmax,
                    node_lists=node_lists, aggregate=spec.aggregate,
                    budget_seconds=spec.budget_seconds,
                    stats=ctx.baseline)
            if projection is not None:
                with ctx.stage("translate"):
                    results = [
                        translate_community(c, projection, origin)
                        for c in results]
            ctx.count("communities", len(results))
        if key is not None:
            # A materialized answer still serves exact repeats and
            # smaller-k slices; COMM-all, or a short top-k, is complete.
            self.results.install(ResultEntry(
                key, generation, prefix=results,
                complete=spec.mode == "all" or len(results) < spec.k))
        return lambda: results

    # ------------------------------------------------------------------
    def _ranked(self, spec: QuerySpec, ctx: QueryContext,
                captured: Captured
                ) -> Tuple[TopKStream,
                           Optional[Callable[[Community], Community]]]:
        """A fresh PDk stream for ``spec`` on the ``captured`` state and
        its map to ``G_D`` ids (``None`` when it runs on ``G_D``), the
        pair a :class:`~repro.engine.results.ResultEntry` holds.

        Setup (projection, the first best core) is charged to ``ctx``;
        every ``Next()`` is charged by the entry's pump to whoever
        pulls it.
        """
        graph, node_lists, projection, origin = \
            self._query_graph(spec, ctx, captured)
        with ctx.stage("enumerate"):
            stream = TopKStream(graph, list(spec.keywords), spec.rmax,
                                node_lists=node_lists,
                                aggregate=spec.aggregate)
        if projection is None:
            return stream, None
        return stream, functools.partial(
            translate_community, projection=projection, dbg=origin)

    def _result_cacheable(self, spec: QuerySpec) -> bool:
        """Whether this spec's answer may be cached and served.

        Budget-capable backends (bu/td) are excluded outright: their
        answers can be deadline-censored and they fill pool baseline
        stats — neither survives being replayed from a cache. The
        polynomial-delay backends (pd, naive) ignore budgets, so their
        answers are pure functions of ``(generation, spec)``.
        """
        if not self.results.enabled:
            return False
        return not self.registry.get(spec.algorithm).supports_budget

    def _query_graph(self, spec: QuerySpec, ctx: QueryContext,
                     captured: Captured):
        """Pick the execution graph: projection, or ``G_D`` directly.

        Runs on the caller's ``captured`` state — every query path
        captures once, before its result-cache lookup, so the entry's
        generation tag matches the artifacts the answer was computed
        on — so everything downstream — projection, enumeration,
        translation — runs against one consistent
        ``(graph, index, generation, owned)`` even if a snapshot swap
        or a delta lands mid-query. On a shard, the first keyword's
        node list is cut to the owned nodes here, after projection
        and before any backend sees it. Returns
        ``(graph, node_lists, projection, origin_graph)``.
        """
        dbg, index, generation, owned = captured
        use_projection = spec.use_projection
        if use_projection is None:
            use_projection = index is not None
        if use_projection:
            projection = self._project(index, generation,
                                       spec.keywords, spec.rmax, ctx)
            node_lists = projection.node_lists
            if owned is not None:
                inverse = projection.inverse
                node_lists = [[u for u in node_lists[0]
                               if inverse[u] in owned],
                              *node_lists[1:]]
            return projection.subgraph, node_lists, projection, dbg
        node_lists = None
        if index is not None:
            with ctx.stage("resolve"):
                for keyword in spec.keywords:
                    index.require_keyword(keyword)
                node_lists = [
                    index.nodes(kw) for kw in spec.keywords]
        if owned is not None:
            node_lists = resolve_keyword_nodes(dbg, spec.keywords,
                                               node_lists)
            node_lists[0] = [u for u in node_lists[0] if u in owned]
        return dbg, node_lists, None, dbg
