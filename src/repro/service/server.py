"""The community-query service: threaded HTTP/JSON over one engine.

:class:`CommunityService` puts a network front on
:class:`~repro.engine.QueryEngine` using only the standard library:
the transport it shares with the shard router
(:class:`~repro.service.wire.Transport`, a thread per connection).
Endpoints:

* ``POST /query`` — one-shot COMM-all / COMM-k; body mirrors
  :class:`~repro.engine.QuerySpec` (``keywords``, ``rmax``, ``k`` or
  ``mode``, ``algorithm``, ``aggregate``, ``deadline_seconds``,
  ``labels``);
* ``POST /batch`` — a list of such queries in one request, answered
  in order by the engine's ``execute_batch`` (a pool engine runs the
  entries concurrently across its worker processes);
* ``POST /sessions`` — open an interactive PDk session (projection +
  heap seeding happen here, once);
* ``POST /sessions/{id}/next`` — enlarge ``k``: up to ``k`` further
  ranked answers with **no** re-projection or re-seeding (the leased
  stream resumes); ``410 Gone`` once the lease expired or the graph
  changed under it;
* ``DELETE /sessions/{id}`` — release a lease early;
* ``POST /admin/reload`` — atomically swap the engine onto the newest
  published snapshot (from the configured ``snapshot_source`` or a
  ``path`` in the body); in-flight queries finish on the artifact they
  started with, open sessions from the old artifact answer ``410``,
  and the adopted generation's result cache is re-warmed with the
  query log's hottest specs before the response returns;
* ``POST /admin/delta`` — online ingestion: a validated
  :class:`~repro.text.maintenance.GraphDelta` body is appended to the
  delta WAL (when one is attached) *before* the engine applies it —
  the acknowledgment (the returned ``lsn``) is durable. Malformed
  deltas (duplicate node ids, unknown edge endpoints, NaN/negative
  weights) answer a typed 400 before touching either;
* ``GET /admin/querylog`` — the ring-buffer ledger of admitted query
  specs (normalized keys + counts), for offline hot-key mining
  (``python -m repro warm``);
* ``GET /metrics`` — Prometheus text format (stage timings, cache and
  shedding counters, queue depth, latency histograms, active snapshot
  id + load timestamp);
* ``GET /healthz`` — liveness plus the current engine generation and
  snapshot id, and on a shard backend a ``partition`` block naming
  the shard it serves.

Every query-executing route passes through the
:class:`~repro.service.admission.AdmissionController`: a full queue
sheds with ``429`` immediately, and the per-request deadline both
bounds the wait (``503``) and flows into ``QuerySpec.budget_seconds``
so the BU/TD baselines self-censor. Connection threads (unbounded,
cheap — they mostly block on the admission future) are therefore
decoupled from query threads (bounded, hot).

Routing and handling live on :meth:`CommunityService.handle`, which is
plain ``(method, path, body) -> (status, template, payload, type)`` —
unit tests exercise it without a socket; the integration suite drives
the real server through :class:`~repro.service.client.ServiceClient`.
The transport that reads requests and writes responses, the route
table and the error mapping are the front door this service shares
with the shard router (:mod:`repro.service.wire`).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import faults
from repro.core.cost import resolve_aggregate
from repro.engine.context import QueryContext
from repro.engine.engine import QueryEngine
from repro.engine.registry import AlgorithmRegistry
from repro.engine.spec import QuerySpec
from repro.exceptions import (
    ServiceError,
    SnapshotError,
    SnapshotNotFoundError,
)
from repro.snapshot.snapshot import load_snapshot
from repro.snapshot.store import locate_snapshot
from repro.wal.records import parse_delta
from repro.service.admission import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_WORKERS,
    AdmissionController,
)
from repro.service.errors import (
    BadRequest,
    Conflict,
    NotFound,
    error_reply,
)
from repro.service.http import (
    OCTET_CONTENT_TYPE,
    SnapshotTransfer,
    snapshot_store_of,
)
from repro.service.metrics import ServiceMetrics, prefixed, split_rates
from repro.service.querylog import DEFAULT_QUERYLOG_CAPACITY, QueryLog
from repro.service.serialize import (
    communities_json,
    context_to_dict,
    json_array,
    render,
    results_to_dict,  # noqa: F401 — perfbench's traced run wraps it
    results_to_json,
)
from repro.service.sessions import (
    DEFAULT_MAX_SESSIONS,
    DEFAULT_TTL_SECONDS,
    SessionLease,
    SessionManager,
)
from repro.service.wire import (
    JSON_CONTENT_TYPE,
    METRICS_CONTENT_TYPE,
    UNMATCHED,
    FrontEnd,
    Response,
    Route,
    RouteTable,
    ServiceHandler,  # noqa: F401 — perfbench's traced run wraps it
    Transport,
)

#: Seconds :meth:`CommunityService.shutdown` waits for in-flight and
#: queued work before tearing the admission pool down hard.
DEFAULT_DRAIN_SECONDS = 5.0

#: How many of the query log's hottest specs the service replays into
#: the result cache right after a reload adopts a new generation.
DEFAULT_WARM_TOP = 8


def _parse_body(body: bytes) -> Dict[str, Any]:
    """The request body as a JSON object (empty body -> ``{}``)."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise BadRequest(f"request body is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    return payload


def _keywords_of(payload: Dict[str, Any]) -> List[str]:
    """The ``keywords`` field: a list, or a comma-separated string."""
    keywords = payload.get("keywords")
    if isinstance(keywords, str):
        keywords = [kw.strip() for kw in keywords.split(",")
                    if kw.strip()]
    if not isinstance(keywords, list) or not keywords \
            or not all(isinstance(kw, str) for kw in keywords):
        raise BadRequest(
            "'keywords' must be a non-empty list of strings "
            "(or a comma-separated string)")
    return keywords


def _float_of(payload: Dict[str, Any], name: str,
              required: bool = True,
              default: Optional[float] = None) -> Optional[float]:
    """A numeric field, validated."""
    if name not in payload:
        if required:
            raise BadRequest(f"missing required field {name!r}")
        return default
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"{name!r} must be a number")
    return float(value)


def _int_of(payload: Dict[str, Any], name: str,
            default: Optional[int] = None) -> Optional[int]:
    """An integer field, validated."""
    if name not in payload:
        return default
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{name!r} must be an integer")
    return value


def _name_of(payload: Dict[str, Any], name: str, default: str) -> str:
    """A field naming a backend or an aggregate: a string."""
    value = payload.get(name, default)
    if not isinstance(value, str):
        raise BadRequest(f"{name!r} must be a string")
    return value


def _aggregate_of(payload: Dict[str, Any]) -> str:
    """The ``aggregate`` field: the name of a known cost aggregate."""
    aggregate = _name_of(payload, "aggregate", "sum")
    resolve_aggregate(aggregate)
    return aggregate


def queries_of(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The ``queries`` of a ``/batch`` body: a non-empty list of query
    payloads (each then parsed by :func:`spec_of`)."""
    queries = payload.get("queries")
    if not isinstance(queries, list) or not queries:
        raise BadRequest(
            "'queries' must be a non-empty list of query objects")
    if not all(isinstance(q, dict) for q in queries):
        raise BadRequest("every batch entry must be an object")
    return queries


def spec_of(payload: Dict[str, Any],
            registry: AlgorithmRegistry) -> QuerySpec:
    """A validated :class:`QuerySpec` from one query payload.

    The request parser of both front ends: the service passes its
    engine's registry, the shard router the default one its backends
    serve. Unknown algorithm and aggregate names are refused here
    (400), before any engine or shard leg sees the query.
    """
    keywords = _keywords_of(payload)
    rmax = _float_of(payload, "rmax")
    k = _int_of(payload, "k")
    mode = payload.get("mode") or ("topk" if k is not None else "all")
    algorithm = _name_of(payload, "algorithm", "pd")
    registry.get(algorithm)
    return QuerySpec(
        tuple(keywords), rmax, mode=mode, k=k, algorithm=algorithm,
        aggregate=_aggregate_of(payload),
        budget_seconds=_float_of(payload, "budget_seconds",
                                 required=False))


def request_of(spec: QuerySpec) -> Dict[str, Any]:
    """The query payload :func:`spec_of` reads back as ``spec``.

    The request format's one writer: the shard router's legs carry
    every field the backends parse, the budget included.
    """
    payload: Dict[str, Any] = {
        "keywords": list(spec.keywords),
        "rmax": spec.rmax,
        "mode": spec.mode,
        "algorithm": spec.algorithm,
        "aggregate": spec.aggregate,
    }
    if spec.k is not None:
        payload["k"] = spec.k
    if spec.budget_seconds is not None:
        payload["budget_seconds"] = spec.budget_seconds
    return payload


def _served_from_cache(context: QueryContext) -> bool:
    """Whether a query was answered purely from the result cache: a
    hit and neither a miss nor an extension, so nothing enumerated
    (on a pool server the lookup is the parent's)."""
    return (context.counter("result_cache_hits") > 0
            and context.counter("result_cache_misses") == 0
            and context.counter("result_cache_extensions") == 0)


class CommunityService(FrontEnd):
    """One engine served over HTTP, with admission control.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` / :attr:`url`); the socket is bound at construction.
    The service is a context manager::

        with CommunityService(engine).start() as service:
            client = ServiceClient(service.url)
            ...
    """

    def __init__(self, engine: QueryEngine,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: int = DEFAULT_WORKERS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 session_ttl: float = DEFAULT_TTL_SECONDS,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 default_deadline: Optional[float] = None,
                 snapshot_source: Optional[Union[str, Path]] = None,
                 drain_seconds: float = DEFAULT_DRAIN_SECONDS,
                 warm_top: int = DEFAULT_WARM_TOP,
                 querylog_capacity: int = DEFAULT_QUERYLOG_CAPACITY,
                 wal: Optional[Any] = None
                 ) -> None:
        self.engine = engine
        self.default_deadline = default_deadline
        #: The delta write-ahead log (an open
        #: :class:`~repro.wal.log.WriteAheadLog`) or ``None`` —
        #: without one ``/admin/delta`` still works but acknowledged
        #: deltas die with the process.
        self.wal = wal
        #: The :class:`~repro.wal.compact.Compactor` when background
        #: compaction is on (``serve --compact-interval``); surfaced
        #: in ``/healthz`` and ``/metrics``.
        self.compactor: Optional[Any] = None
        #: Serializes delta acknowledgment (WAL append + engine
        #: apply) against compaction commits, so no delta is logged
        #: against a base that is being checkpointed away mid-append.
        self.ingest_lock = threading.Lock()
        #: How many hot specs to replay into the result cache after a
        #: generation swap (``0`` disables post-reload warming).
        self.warm_top = warm_top
        #: Ring buffer of admitted ``/query``/``/batch`` specs — the
        #: source both the post-reload warming pass and the offline
        #: miner (``GET /admin/querylog``) draw from.
        self.querylog = QueryLog(capacity=querylog_capacity)
        #: Graceful-shutdown budget: how long :meth:`shutdown` lets
        #: queued + in-flight work finish before tearing down hard.
        self.drain_seconds = drain_seconds
        #: Where ``POST /admin/reload`` looks for the newest published
        #: snapshot: a snapshot directory or a store root.
        self.snapshot_source = snapshot_source
        #: Cross-box transfer state (``/admin/snapshot...`` routes);
        #: ``None`` when no snapshot store is derivable, in which
        #: case those routes answer 400 (:meth:`_transfer`).
        store_root = snapshot_store_of(snapshot_source)
        self.snapshot_transfer = (SnapshotTransfer(store_root)
                                  if store_root is not None else None)
        self.admission = AdmissionController(
            workers=workers, queue_depth=queue_depth,
            default_deadline=default_deadline)
        self.sessions = SessionManager(
            engine, ttl_seconds=session_ttl, max_sessions=max_sessions)
        self.metrics = ServiceMetrics()
        transfer = self._transfer
        #: Every endpoint; :meth:`handle` serves what this table
        #: matches, labelled with the row's template.
        self.routes = RouteTable([
            Route("POST", "/query", self._query),
            Route("POST", "/batch", self._batch),
            Route("POST", "/sessions", self._session_create),
            Route("POST", "/sessions/{id}/next", self._session_next),
            Route("DELETE", "/sessions/{id}", self._session_close),
            Route("GET", "/metrics", lambda _: self.render_metrics(),
                  METRICS_CONTENT_TYPE),
            Route("GET", "/healthz", lambda _: self._health()),
            Route("POST", "/admin/reload", self._admin_reload),
            Route("POST", "/admin/delta", self._admin_delta),
            Route("GET", "/admin/querylog",
                  lambda _: self._admin_querylog()),
            # cross-box snapshot transfer (repro.service.http)
            Route("POST", "/admin/snapshot",
                  lambda body: transfer().begin(_parse_body(body))),
            Route("PUT", "/admin/snapshot/{id}/{section}",
                  lambda body, sid, name: transfer().receive(
                      sid, name, body)),
            Route("POST", "/admin/snapshot/{id}/commit",
                  lambda _, sid: transfer().commit(sid)),
            Route("DELETE", "/admin/snapshot/{id}",
                  lambda _, sid: transfer().abort(sid)),
            Route("GET", "/admin/snapshot/{id}/manifest",
                  lambda _, sid: transfer().manifest_of(sid)),
            Route("GET", "/admin/snapshot/{id}/{section}",
                  lambda _, sid, name: transfer().section_of(sid, name),
                  OCTET_CONTENT_TYPE),
        ])
        self._http = Transport(host, port, self.handle, self.metrics)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, drain_seconds: Optional[float] = None) -> None:
        """Graceful stop: drain in-flight work, then tear down.

        Sequence: stop admitting (new submissions shed ``503
        ShuttingDown`` + ``Retry-After``), let queued and in-flight
        jobs finish for up to ``drain_seconds`` (default: the
        constructor's :attr:`drain_seconds`), then close the listener
        and fail whatever is left. A request admitted before SIGTERM
        therefore completes normally as long as it fits the drain
        budget.

        Safe on a service that never served a socket (tests drive
        :meth:`handle` directly).
        """
        if drain_seconds is None:
            drain_seconds = self.drain_seconds
        drained = self.admission.drain(drain_seconds)
        self._http.stop()
        self.admission.shutdown()
        #: Whether the last shutdown finished all admitted work inside
        #: the drain budget (callers/ops scripts can assert on it).
        self.drained_clean = drained

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: bytes) -> Response:
        """Serve one request; never raises.

        Returns ``(status, path_template, body, content_type)``. The
        template (e.g. ``/sessions/{id}/next``, or
        :data:`~repro.service.wire.UNMATCHED` for a path no route
        matches) keys the latency histograms, so metric cardinality
        stays bounded however many session ids and unknown paths
        exist.
        """
        start = time.perf_counter()
        template = UNMATCHED
        try:
            route, params = self.routes.match(method, path)
            template = route.template
            faults.hit("service.request")
            payload = route.handler(body, *params)
            if not isinstance(payload, (str, bytes)):
                payload = json.dumps(payload)
            status, content_type = 200, route.content_type
        except Exception as error:  # noqa: BLE001 — boundary: any bug
            # becomes a 500 response rather than a dead connection.
            (status, payload), content_type = (error_reply(error),
                                               JSON_CONTENT_TYPE)
        self.metrics.observe_request(template, status,
                                     time.perf_counter() - start)
        return status, template, payload, content_type

    def _transfer(self) -> SnapshotTransfer:
        """The transfer state; without a snapshot store, a 400 (not a
        404: a misconfigured fleet is told apart from a bad URL)."""
        if self.snapshot_transfer is None:
            raise BadRequest("the service has no snapshot store "
                             "(serve with --snapshot <store>)")
        return self.snapshot_transfer

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _health(self) -> Dict[str, Any]:
        """Liveness payload.

        ``status`` is ``"ok"`` normally and ``"degraded"`` once the
        pool's crash-storm breaker opened (the service still answers,
        on fewer workers) — orchestrators alert on it without parsing
        metrics. A backend serving a shard snapshot adds
        ``partition: {shard, of, owned_nodes}``."""
        health = {
            "status": "ok",
            "generation": self.engine.generation,
            "snapshot": self.engine.snapshot_id,
            # Delta divergence is surfaced whether or not a WAL is
            # attached: a dirty engine with no WAL is exactly the
            # state an operator must notice (a restart loses it).
            "dirty": self.engine.dirty,
            "deltas_applied": self.engine.deltas_applied,
            "sessions": self.sessions.count,
            "queued": self.admission.queued,
            "in_flight": self.admission.in_flight,
        }
        if self.wal is not None:
            wal_block = dict(self.wal.as_dict(), enabled=True,
                             dirty=health["dirty"])
            if self.compactor is not None:
                wal_block["compaction"] = self.compactor.as_dict()
                if self.compactor.degraded:
                    health["status"] = "degraded"
            health["wal"] = wal_block
        health["result_cache"] = self.engine.results.as_dict()
        health["querylog"] = self.querylog.as_dict()
        partition = self.engine.partition
        if partition is not None:
            # Which shard this backend actually serves, for the
            # router's per-replica health rows.
            health["partition"] = {
                "shard": partition.get("shard"),
                "of": partition.get("of"),
                "owned_nodes": len(self.engine.owned),
            }
        pool = self.engine.pool
        if pool is not None:
            health["pool_workers"] = pool.workers
            health["pool_alive"] = pool.alive
            health["pool_degraded"] = pool.degraded
            if pool.degraded:
                health["status"] = "degraded"
        return health

    def _admin_reload(self, body: bytes) -> Dict[str, Any]:
        """``POST /admin/reload``: swap onto the newest snapshot.

        Resolves the configured :attr:`snapshot_source` (or a ``path``
        supplied in the body) — a snapshot directory or a store root,
        in which case the store's ``latest`` wins — loads it with
        checksum verification, and atomically swaps the engine onto
        it. A ``snapshot`` id in the body resolves against the
        service's own snapshot store instead: the cross-box form,
        used after a :func:`~repro.service.http.push_snapshot`, so no
        filesystem path crosses a box boundary. In-flight queries
        finish on the artifact they started with; a reload to a
        content-identical snapshot is a no-op that keeps the cache
        warm and open sessions valid. A snapshot the engine refuses to
        adopt (a shard snapshot without its ``owned`` section) is a
        400 before any side effect.
        """
        faults.hit("service.reload")
        payload = _parse_body(body)
        snapshot_id = payload.get("snapshot")
        if snapshot_id is not None:
            try:
                source: Any = self._transfer().store.resolve(
                    str(snapshot_id))
            except SnapshotNotFoundError as error:
                raise NotFound(str(error))
        else:
            source = payload.get("path") or self.snapshot_source
        if source is None:
            raise BadRequest(
                "no snapshot source configured; serve with a "
                "--snapshot source or supply 'path' in the body")
        try:
            snapshot = load_snapshot(locate_snapshot(source))
            self.engine.check_adoptable(snapshot)
        except SnapshotNotFoundError as error:
            raise NotFound(str(error))
        except SnapshotError as error:
            raise BadRequest(str(error))
        with self.ingest_lock:
            superseded = 0
            if self.wal is not None:
                # Record the supersede point *before* the swap: pool
                # workers replay the WAL as part of their reload, and
                # without a checkpoint naming the incoming snapshot
                # they would refuse it as foreign history. If the
                # swap fails and rolls back, the stale checkpoint is
                # harmless for replay of the previous snapshot but
                # the log should be compacted or the service
                # restarted (see OPERATIONS.md).
                lsn_before = self.wal.lsn
                if self.engine.generation != snapshot.id:
                    self.wal.append_checkpoint(snapshot.id,
                                               lsn_before)
            try:
                changed = self.engine.swap_snapshot(snapshot)
            except SnapshotError as error:
                # The engine already rolled everyone back to the
                # previous snapshot; report the failure without
                # pretending the request was malformed.
                raise ServiceError(str(error))
            if self.wal is not None and changed:
                # The adopted snapshot supersedes everything logged
                # before it — drop the folded prefix.
                superseded = self.wal.truncate(lsn_before)
        # An adopted new generation starts with an empty result cache
        # — re-warm it with the workload's observed head before the
        # next client asks, so the first post-reload repeats are hits.
        warmed = self.warm() if changed else 0
        result = {
            "reloaded": changed,
            "snapshot": snapshot.id,
            "generation": self.engine.generation,
            "loaded_at": self.engine.snapshot_loaded_at,
            "warmed": warmed,
        }
        if self.wal is not None:
            result["wal_superseded"] = superseded
            result["wal_lsn"] = self.wal.lsn
        return result

    def _admin_delta(self, body: bytes) -> Dict[str, Any]:
        """``POST /admin/delta``: ingest one graph delta, durably.

        Body: ``{"nodes": [...], "edges": [[u, v, w], ...],
        "banks_reweight": false}`` — the
        :class:`~repro.text.maintenance.GraphDelta` wire form.
        Everything happens under the ingest lock, which compaction
        and reloads also hold while they swap the served graph, so
        the node count the delta is validated against is the one it
        is applied to. A backend serving one shard of a partitioned
        snapshot refuses with a typed 409; validation follows (typed
        400 before any side effect); then the delta is appended to
        the WAL — fsynced per the serving policy — and only then
        applied to the engine: an acknowledged LSN is always
        recoverable. A pool engine's apply also fans the delta out to
        every worker.
        """
        faults.hit("service.delta")
        with self.ingest_lock:
            partition = self.engine.partition
            if partition is not None:
                raise Conflict(
                    f"this backend serves shard "
                    f"{partition.get('shard')} of "
                    f"{partition.get('of')} of a partitioned "
                    f"snapshot; nothing routes a delta to every "
                    f"shard or gives a new node an owner, so deltas "
                    f"are refused — apply it to the unsharded "
                    f"snapshot and partition again")
            payload = _parse_body(body)
            banks = payload.get("banks_reweight", False)
            if not isinstance(banks, bool):
                raise BadRequest("'banks_reweight' must be a boolean")
            delta = parse_delta(payload, base_nodes=self.engine.dbg.n)
            lsn = None
            if self.wal is not None:
                lsn = self.wal.append_delta(
                    delta, base=self.engine.base_snapshot_id,
                    banks_reweight=banks)
            self.engine.apply_delta(delta, banks, lsn=lsn)
        # Sessions opened against the pre-delta generation now answer
        # 410 on their next call; that is the same contract a reload
        # imposes, and clients already handle it.
        result = {
            "lsn": lsn,
            "nodes_added": delta.node_count(),
            "edges_added": len(delta.new_edges),
            "generation": self.engine.generation,
            "dirty": self.engine.dirty,
            "deltas_applied": self.engine.deltas_applied,
        }
        if self.wal is not None:
            result["pending_deltas"] = self.wal.pending_count
        return result

    def _admin_querylog(self) -> Dict[str, Any]:
        """``GET /admin/querylog``: the hot-spec ledger, for miners."""
        return {
            "querylog": self.querylog.as_dict(),
            "top": self.querylog.top(),
        }

    def warm(self, specs: Optional[List[QuerySpec]] = None,
             top: Optional[int] = None) -> int:
        """Replay specs into the engine's result cache (best effort).

        With no ``specs``, mines this service's own query log for its
        ``top`` (default :attr:`warm_top`) hottest entries. Returns
        how many specs were actually computed into the cache (already
        -warm and uncacheable specs don't count). Warming is an
        optimization: any failure degrades to a cold cache, never to
        a failed request.
        """
        if specs is None:
            limit = self.warm_top if top is None else top
            if not limit:
                return 0
            specs = self.querylog.top_specs(limit)
        if not specs:
            return 0
        try:
            return self.engine.warm(list(specs))
        except Exception:  # noqa: BLE001 — warming must never take
            # the service down; a cold cache just recomputes.
            return 0

    @staticmethod
    def _clamp_budget(spec: QuerySpec,
                      remaining: Optional[float]) -> QuerySpec:
        """Tighten the spec's budget to the admission deadline."""
        if remaining is not None and (
                spec.budget_seconds is None
                or remaining < spec.budget_seconds):
            return replace(spec, budget_seconds=remaining)
        return spec

    def _query(self, body: bytes) -> str:
        """``POST /query``: one-shot COMM-all / COMM-k."""
        payload = _parse_body(body)
        spec = spec_of(payload, self.engine.registry)
        deadline = _float_of(payload, "deadline_seconds",
                             required=False,
                             default=self.default_deadline)
        want_labels = bool(payload.get("labels", False))
        context = QueryContext()
        start = time.perf_counter()

        def job(remaining: Optional[float]) -> Any:
            return self.engine.execute(
                self._clamp_budget(spec, remaining), context)

        results = self.admission.run(job, deadline)
        self.metrics.observe_context(context)
        self.querylog.record(spec)
        return results_to_json(
            results,
            dbg=self.engine.dbg if want_labels else None,
            context=context, spec=spec,
            elapsed_seconds=time.perf_counter() - start,
            cached=_served_from_cache(context))

    def _batch(self, body: bytes) -> str:
        """``POST /batch``: a list of queries in one request.

        Body: ``{"queries": [<query payload>, ...]}`` plus optional
        batch-wide ``deadline_seconds``/``labels``. The batch is one
        admission job (one queue slot, one deadline) that hands every
        spec to the engine's ``execute_batch``: an in-process engine
        runs them in order, a pool engine concurrently across its
        worker processes, so one HTTP round-trip keeps every worker
        busy. Results come back in request order, one standard query
        envelope per entry, each with its own per-query stats.
        """
        payload = _parse_body(body)
        specs = [spec_of(query, self.engine.registry)
                 for query in queries_of(payload)]
        deadline = _float_of(payload, "deadline_seconds",
                             required=False,
                             default=self.default_deadline)
        want_labels = bool(payload.get("labels", False))
        contexts = [QueryContext() for _ in specs]
        start = time.perf_counter()

        def job(remaining: Optional[float]) -> List[Any]:
            return self.engine.execute_batch(
                [self._clamp_budget(spec, remaining) for spec in specs],
                contexts)

        all_results = self.admission.run(job, deadline)
        elapsed = time.perf_counter() - start
        dbg = self.engine.dbg if want_labels else None
        envelopes = []
        for spec, context, results in zip(specs, contexts,
                                          all_results):
            self.metrics.observe_context(context)
            self.querylog.record(spec)
            envelopes.append(results_to_json(
                results, dbg=dbg, context=context, spec=spec,
                cached=_served_from_cache(context)))
        return render({
            "queries": len(envelopes),
            "results": json_array(envelopes),
            "elapsed_seconds": elapsed,
        })

    def _session_create(self, body: bytes) -> Dict[str, Any]:
        """``POST /sessions``: lease an interactive PDk stream."""
        payload = _parse_body(body)
        keywords = _keywords_of(payload)
        rmax = _float_of(payload, "rmax")
        aggregate = _aggregate_of(payload)
        ttl = _float_of(payload, "ttl_seconds", required=False)
        deadline = _float_of(payload, "deadline_seconds",
                             required=False,
                             default=self.default_deadline)

        def job(remaining: Optional[float]) -> SessionLease:
            return self.sessions.create(keywords, rmax,
                                        aggregate=aggregate,
                                        ttl_seconds=ttl)

        lease = self.admission.run(job, deadline)
        # The creation context starts empty, so the whole thing is the
        # delta to fold into the service-wide metrics.
        self.metrics.observe_context(lease.context)
        return {
            "session": lease.id,
            "generation": lease.generation,
            "ttl_seconds": lease.ttl_seconds,
            "keywords": list(lease.keywords),
            "rmax": lease.rmax,
            "stats": context_to_dict(lease.context),
        }

    def _session_next(self, body: bytes, session_id: str) -> str:
        """``POST /sessions/{id}/next``: enlarge k, no recomputation.

        The page's position and stats are read under the lease lock
        (:class:`~repro.service.sessions.SessionPage`), so concurrent
        pages of one session each report and count only their own
        communities.
        """
        payload = _parse_body(body)
        k = _int_of(payload, "k", default=10)
        deadline = _float_of(payload, "deadline_seconds",
                             required=False,
                             default=self.default_deadline)
        want_labels = bool(payload.get("labels", False))

        def job(remaining: Optional[float]) -> Any:
            communities, page = self.sessions.next(session_id, k)
            self.metrics.observe_context(page.spent)
            return communities, page

        communities, page = self.admission.run(job, deadline)
        dbg = self.engine.dbg if want_labels else None
        return render({
            "session": page.lease.id,
            "generation": page.lease.generation,
            "returned": len(communities),
            "emitted": page.emitted,
            "exhausted": page.exhausted,
            "communities": communities_json(communities, dbg),
            "stats": context_to_dict(page.context),
        })

    def _session_close(self, body: bytes,
                       session_id: str) -> Dict[str, bool]:
        """``DELETE /sessions/{id}``: release a lease early."""
        self.sessions.close(session_id)
        return {"closed": True}

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """One Prometheus scrape of the whole service."""
        cache_counters, cache_gauges = split_rates(
            self.engine.cache.stats.as_dict(), ("cache_hit_rate",))
        counters = prefixed(cache_counters, prefix="repro_projection_",
                            suffix="_total")
        counters.update(prefixed(self.admission.stats.as_dict(),
                                 prefix="repro_", suffix="_total"))
        counters.update(prefixed(self.sessions.stats.as_dict(),
                                 prefix="repro_", suffix="_total"))
        gauges = prefixed(cache_gauges, prefix="repro_projection_")
        rc_counters, rc_gauges = split_rates(
            self.engine.results.as_dict(), ("result_cache_hit_rate",))
        # Occupancy/capacity are instantaneous values, not monotone
        # counters — keep them out of the _total family (bytes stays
        # there: the dashboards key on repro_result_cache_bytes_total).
        for name in ("result_cache_entries",
                     "result_cache_capacity_bytes"):
            if name in rc_counters:
                rc_gauges[name] = rc_counters.pop(name)
        counters.update(prefixed(rc_counters, prefix="repro_",
                                 suffix="_total"))
        gauges.update(prefixed(rc_gauges, prefix="repro_"))
        gauges.update({
            "repro_queue_depth": float(self.admission.queued),
            "repro_in_flight": float(self.admission.in_flight),
            "repro_sessions_active": float(self.sessions.count),
            "repro_engine_generation": float(
                self.engine.generation_epoch),
            "repro_projection_cache_size": float(
                len(self.engine.cache)),
            "repro_engine_dirty": float(self.engine.dirty),
        })
        counters["repro_engine_deltas_applied_total"] = float(
            self.engine.deltas_applied)
        if self.wal is not None:
            counters.update({
                "repro_wal_appends_total": float(self.wal.appends),
                "repro_wal_fsyncs_total": float(self.wal.fsyncs),
                "repro_wal_truncations_total": float(
                    self.wal.truncations),
                "repro_wal_replayed_records_total": float(
                    self.wal.replayed),
            })
            gauges.update({
                "repro_wal_lsn": float(self.wal.lsn),
                "repro_wal_pending_deltas": float(
                    self.wal.pending_count),
                "repro_wal_bytes": float(self.wal.wal_bytes),
            })
        if self.compactor is not None:
            counters["repro_wal_compactions_total"] = float(
                self.compactor.compactions)
            counters["repro_wal_compaction_failures_total"] = float(
                self.compactor.failures)
            counters["repro_wal_folded_deltas_total"] = float(
                self.compactor.folded)
            gauges["repro_wal_compaction_degraded"] = float(
                bool(self.compactor.degraded))
        infos: Dict[str, Any] = {}
        if self.engine.snapshot_id is not None:
            infos["repro_snapshot_info"] = {
                "snapshot_id": self.engine.snapshot_id}
            gauges["repro_snapshot_loaded_timestamp_seconds"] = \
                float(self.engine.snapshot_loaded_at or 0.0)
        self._worker_metrics(counters, gauges, infos)
        return self.metrics.render(counters=counters, gauges=gauges,
                                   infos=infos)

    def _worker_metrics(self, counters: Dict[str, float],
                        gauges: Dict[str, float],
                        infos: Dict[str, Any]) -> None:
        """Fold pool-worker observability into one scrape.

        Engines without a pool contribute nothing. With a
        :class:`~repro.parallel.ParallelQueryEngine`:

        * ``repro_worker_info{worker,pid,snapshot_id,generation}`` —
          one identity row per worker, which is how the reload smoke
          test asserts every worker adopted the new snapshot;
        * ``repro_worker_*_total`` — the workers' projection cache
          and Dijkstra-memo counters, summed (per-stage wall
          clock needs no special handling: workers report timings per
          query and the service folds them into
          ``repro_stage_seconds_total`` exactly as in-process
          execution does);
        * ``repro_pool_workers`` / ``repro_pool_workers_alive`` /
          ``repro_pool_respawns_total`` — pool health.
        """
        pool = self.engine.pool
        if pool is None:
            return
        rows = []
        summed: Dict[str, float] = {}
        for stats in self.engine.worker_stats():
            rows.append({
                "worker": str(stats.get("worker")),
                "pid": str(stats.get("pid", "")),
                "snapshot_id": str(stats.get("snapshot_id", "")),
                "generation": str(stats.get("generation", "")),
                "alive": str(bool(stats.get("alive"))).lower(),
            })
            for name, value in stats.items():
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)):
                    continue
                if name in ("worker", "pid"):
                    continue
                summed[name] = summed.get(name, 0.0) + float(value)
        infos["repro_worker_info"] = rows
        worker_counters, worker_gauges = split_rates(
            summed, ("cache_hit_rate",))
        counters.update(prefixed(worker_counters,
                                 prefix="repro_worker_",
                                 suffix="_total"))
        gauges.update(prefixed(worker_gauges, prefix="repro_worker_"))
        gauges["repro_pool_workers"] = float(pool.workers)
        gauges["repro_pool_workers_alive"] = float(pool.alive)
        gauges["repro_pool_degraded"] = float(pool.degraded)
        counters["repro_pool_respawns_total"] = float(pool.respawns)
        # Alias kept alongside respawns_total: dashboards built on the
        # conventional restart counter name need no relabeling.
        counters["repro_worker_restarts_total"] = float(pool.respawns)
        counters["repro_pool_timeouts_total"] = float(pool.timeouts)
