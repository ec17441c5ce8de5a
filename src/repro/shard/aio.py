"""The scatter-gather router: legs to the shards on one event loop.

Transport half of the router; all routing *policy* lives in
:class:`~repro.shard.routing.RouterCore`:

* :class:`AsyncShardClient` — the asyncio transport under
  :class:`~repro.service.wire.ClientCore`, the core it shares with
  :class:`~repro.service.client.ServiceClient`: the same framing,
  keep-alive pool, retry/backoff policy, stale-socket replay and
  error taxonomy, over raw :func:`asyncio.open_connection`. Every
  exchange runs under :func:`asyncio.wait_for`, so one hung shard
  costs one leg's deadline, never a blocked thread.
* :class:`AsyncReplicaSet` — one shard's interchangeable backends
  behind a sticky active cursor, failing a leg over to a sibling box
  before the router gives the shard up.
* :class:`AsyncRouterService` — reads requests and answers them
  through the front door it shares with the single-box service
  (:mod:`repro.service.wire`: one transport with a thread per client
  connection, one route matcher, one error mapping, one response
  writer); each request's handling runs on the router's event loop,
  which runs nothing but the legs. A query is one ``asyncio.gather``
  of one leg per shard, so its concurrency is bounded by the
  fleet, not a thread pool, and its latency by the slowest leg:
  each shard enumerates only the communities it owns, so one round
  of ``k`` per shard is the whole merge (:mod:`repro.shard.merge`).
  The admin plane (``/admin/reload``, including the cross-box
  ``transfer`` mode) runs the synchronous
  :func:`~repro.shard.routing.reload_fleet` on an executor thread —
  reloads are rare, walk every replica in order, and must not hold
  up the loop.

Endpoints mirror the single-box service where they overlap:

* ``POST /query`` — fanned to every shard; PDk answers are the ``k``
  cheapest of one leg of ``k`` per shard, PDall the union, both in
  canonical ``(cost, core)`` order. A shard's refusal (a 4xx other
  than 429, such as an unknown keyword or an ``rmax`` above the index
  radius) is the router's reply, with the shard's status and
  message. A leg that answers with a community its shard does not
  own counts as a failed shard. The response envelope adds
  ``shards_answered`` / ``shards_total`` / ``partial``: a shard whose
  whole replica set times out, sheds, or crashes mid-fan-out costs
  *coverage*, not availability — the router answers ``200`` with what
  the live shards proved.
* ``POST /batch`` — the whole batch goes to every shard as one
  ``/batch``, and each entry is merged from its shards' answers (each
  entry gets its own partiality fields); a shard's refusal of the
  batch is the router's, as on ``/query``.
* ``GET /healthz`` — aggregated fleet health (per-shard rows with
  per-replica detail plus a rolled-up status).
* ``GET /metrics`` — ``repro_router_*`` counters/gauges (including
  ``repro_router_failover_total``) plus per-shard fan-out latency
  histograms.
* ``POST /admin/reload`` — re-reads the routing manifest and
  broadcasts per-replica reloads with rollback; with
  ``{"transfer": true}`` each shard snapshot is pushed over the wire
  first.

The router holds no query state between requests — every leg is an
idempotent stateless read (retried by the client layer on torn
connections), so any number of router replicas can sit behind one
load balancer.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import time
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, \
    Tuple, Union

from repro import faults
from repro.exceptions import ServiceError
from repro.service.client import ServiceClient
from repro.service.errors import ShuttingDown, error_reply
from repro.service.wire import (
    HEAD_END,
    JSON_CONTENT_TYPE,
    MAX_HEAD_BYTES,
    METRICS_CONTENT_TYPE,
    STALE_ERRORS,
    TORN_ERRORS,
    UNMATCHED,
    ClientCore,
    FrontEnd,
    MalformedResponse,
    Response,
    Route,
    RouteTable,
    StaleConnection,
    Transport,
    reject,
)
from repro.shard.manifest import RoutingManifest
from repro.shard.routing import (
    DEFAULT_SHARD_RETRIES,
    DEFAULT_SHARD_TIMEOUT,
    RouterCore,
    _should_failover,
    parse_shard_urls,
    reload_fleet,
)

PathLike = Union[str, Path]


class _Stream:
    """One pooled keep-alive connection (reader/writer pair)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    def close(self) -> None:
        """Abort the transport (no graceful drain — pool discard)."""
        try:
            self.writer.close()
        except Exception:  # noqa: BLE001 — already-dead transports
            # must not break pool cleanup.
            pass


class AsyncShardClient(ClientCore):
    """The asyncio transport of the shared client core.

    Same constructor, retry policy (429/503 with capped exponential
    backoff + jitter, ``Retry-After`` honored), idempotency gating of
    connection-error retries, stale-socket single replay, error
    taxonomy, and ``connections_opened`` telemetry as
    :class:`~repro.service.client.ServiceClient` — both are
    :class:`~repro.service.wire.ClientCore` — but every blocking
    point is an ``await``, and the per-call ``timeout`` is enforced
    with :func:`asyncio.wait_for` per physical exchange. Instances
    belong to one event loop.
    """

    async def aclose(self) -> None:
        """Close every pooled keep-alive connection (idempotent)."""
        self.close()

    async def request(self, method: str, path: str,
                      payload: Optional[Dict[str, Any]] = None,
                      idempotent: Optional[bool] = None) -> Any:
        """One logical HTTP exchange; JSON in, JSON (or text) out.

        Semantics identical to
        :meth:`~repro.service.client.ServiceClient.request`; see
        there for the retry and idempotency contract.
        """
        headers, body = await self._call(
            method, self._frame_json(method, path, payload), idempotent)
        return self._decode(headers, body)

    async def health(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return await self.request("GET", "/healthz")

    async def _call(self, method: str, request: bytes,
                    idempotent: Optional[bool]
                    ) -> Tuple[Dict[str, str], bytes]:
        """The retry loop around one logical exchange."""
        attempt = 0
        while True:
            try:
                faults.hit("client.request")
                return self._outcome(*await self._exchange(request))
            except ServiceError as error:
                delay = self._retry_delay(error, attempt, method,
                                          idempotent)
                if delay is None:
                    raise
            await asyncio.sleep(delay)
            attempt += 1

    async def _exchange(self, request: bytes
                        ) -> Tuple[int, Dict[str, str], bytes]:
        """One round trip on a pooled or new stream, replayed once on
        a new one when the pooled one went stale."""
        stream = self._pooled()
        reused = stream is not None
        if stream is None:
            stream = await self._connect()
        while True:
            try:
                response = await self._timed(
                    self._roundtrip(stream, request))
            except TORN_ERRORS as error:
                stream.close()
                if not (reused and isinstance(error, StaleConnection)):
                    raise self._unreachable(error) from None
                stream, reused = await self._connect(), False
                continue
            self._release(stream, response[1])
            return response

    async def _connect(self) -> _Stream:
        """A new stream to the base host."""
        try:
            reader, writer = await self._timed(asyncio.open_connection(
                self._host, self._port, ssl=self._ssl,
                limit=MAX_HEAD_BYTES))
        except OSError as error:
            raise self._unreachable(error) from None
        self.connections_opened += 1
        return _Stream(reader, writer)

    async def _timed(self, awaitable: Awaitable[Any]) -> Any:
        """``awaitable`` under the per-exchange timeout.

        An expiry raises the builtin ``TimeoutError``, which
        :data:`~repro.service.wire.TORN_ERRORS` covers; before Python
        3.11, ``asyncio.TimeoutError`` is a different class.
        """
        try:
            return await asyncio.wait_for(awaitable, self.timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"no answer within {self.timeout}s") from None

    async def _roundtrip(self, stream: _Stream, request: bytes
                         ) -> Tuple[int, Dict[str, str], bytes]:
        """One physical request/response on ``stream``.

        The body is always fully read so the stream is clean for the
        next exchange.
        """
        try:
            stream.writer.write(request)
            await stream.writer.drain()
            head = await stream.reader.read(1)
        except STALE_ERRORS as error:
            raise StaleConnection(str(error)) from None
        try:
            head += await stream.reader.readuntil(HEAD_END)
        except asyncio.IncompleteReadError as error:
            head += error.partial      # cut short: the parse rejects it
        except asyncio.LimitOverrunError:
            raise MalformedResponse("overlong response head") from None
        status, headers, length = self._response_head(head)
        if length is None:
            return status, headers, await stream.reader.read()
        return status, headers, await stream.reader.readexactly(length)


class AsyncReplicaSet:
    """One shard's interchangeable backends behind a sticky cursor.

    A shard may be served by several boxes holding the same shard
    snapshot. Every call goes to the *active* replica; a transport
    failure or a shedding reply (429/503, after the client's own
    retries) fails the call over to the next sibling, each sibling
    tried at most once per call. Success on a sibling makes it the
    new active replica, so a dead primary costs one failover per
    in-flight call, not one per future call. Deterministic errors
    (400/404/410) propagate immediately — a replica cannot fix a bad
    request. No locks: instances belong to one event loop.
    """

    def __init__(self, shard_id: int, urls: List[str],
                 client_factory: Optional[
                     Callable[[str], AsyncShardClient]] = None,
                 on_failover: Optional[
                     Callable[[int, str, str], None]] = None) -> None:
        if not urls:
            raise ServiceError(
                f"shard {shard_id} has no replica URLs")
        factory = client_factory or AsyncShardClient
        self.shard_id = shard_id
        self.urls = [url.rstrip("/") for url in urls]
        self.clients = [factory(url) for url in self.urls]
        self._on_failover = on_failover
        self._active = 0
        #: Lifetime count of calls this set moved to a sibling.
        self.failovers = 0

    @property
    def active_url(self) -> str:
        """The replica currently receiving this shard's calls."""
        return self.urls[self._active]

    async def call(self, fn: Callable[[AsyncShardClient],
                                      Awaitable[Any]]) -> Any:
        """Run ``fn`` against the active replica, failing over."""
        start = self._active
        last: Optional[ServiceError] = None
        for offset in range(len(self.clients)):
            index = (start + offset) % len(self.clients)
            try:
                result = await fn(self.clients[index])
            except ServiceError as error:
                if not _should_failover(error):
                    raise
                last = error
                if offset + 1 < len(self.clients):
                    self.failovers += 1
                    if self._on_failover is not None:
                        self._on_failover(
                            self.shard_id, self.urls[index],
                            self.urls[(index + 1)
                                      % len(self.clients)])
                continue
            if index != start:
                self._active = index
            return result
        assert last is not None
        raise last

    async def aclose(self) -> None:
        """Release every replica client's pooled connections."""
        for client in self.clients:
            await client.aclose()

    def __repr__(self) -> str:
        return (f"AsyncReplicaSet({self.shard_id}, "
                f"{'|'.join(self.urls)!r})")


class AsyncRouterService(FrontEnd):
    """Scatter-gather front end over a shard fleet.

    Each ``shard_urls`` entry names one shard's replica set — a
    single URL, or comma-separated sibling URLs that serve the same
    shard snapshot (``"http://a:8420,http://b:8420"``); entry ``i``
    serves shard ``i``. ``root`` is the partition root the manifest
    was loaded from; ``/admin/reload`` re-reads it and resolves
    per-shard stores against it. The socket is bound and the event
    loop started on a background thread at construction; requests
    arrive on the transport's connection threads, and :meth:`handle`
    runs each on the loop.

    The data plane (``/query``, ``/batch``, ``/healthz``) is fully
    async over :class:`AsyncReplicaSet` fan-outs. The admin plane
    (``/admin/reload``) runs the synchronous
    :func:`~repro.shard.routing.reload_fleet` on an executor thread,
    over one blocking :class:`~repro.service.client.ServiceClient`
    per replica.
    """

    def __init__(self, manifest: RoutingManifest,
                 shard_urls: List[str],
                 root: Optional[PathLike] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 shard_timeout: float = DEFAULT_SHARD_TIMEOUT,
                 shard_retries: int = DEFAULT_SHARD_RETRIES,
                 retry_seed: Optional[int] = None) -> None:
        groups = parse_shard_urls(shard_urls)
        if len(groups) != len(manifest.shards):
            # At construction, so a misconfigured router dies at
            # startup, not at first query.
            raise ServiceError(
                f"the routing manifest names {len(manifest.shards)} "
                f"shards but {len(groups)} shard URLs were supplied; "
                f"pass exactly one per shard, in shard order "
                f"(comma-separate replica URLs within one)")
        self.core = RouterCore(manifest, root=root)
        self.replica_sets = [
            AsyncReplicaSet(
                shard_id, urls,
                client_factory=lambda url: AsyncShardClient(
                    url, timeout=shard_timeout, retries=shard_retries,
                    retry_seed=retry_seed),
                on_failover=self.core.note_failover)
            for shard_id, urls in enumerate(groups)]
        # The admin plane runs the synchronous reload logic on an
        # executor thread; it needs blocking clients.
        self._admin_fleet = [
            [ServiceClient(url, timeout=shard_timeout,
                           retries=shard_retries,
                           retry_seed=retry_seed) for url in urls]
            for urls in groups]
        self._http = Transport(host, port, self.handle,
                               self.core.metrics)
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, daemon=True,
            name="repro-router-legs")
        self._loop_thread.start()
        #: Set by :meth:`shutdown`, under ``_closing_lock``; a request
        #: handed to the loop after it is answered 503 instead.
        self._closing = False
        self._closing_lock = threading.Lock()
        #: Every endpoint; :meth:`handle_async` awaits what its
        #: handlers return.
        self.routes = RouteTable([
            Route("POST", "/query", self._query),
            Route("POST", "/batch", self._batch),
            Route("GET", "/metrics", self._metrics,
                  METRICS_CONTENT_TYPE),
            Route("GET", "/healthz", lambda _: self._health()),
            # rare, and walks every replica: off the loop
            Route("POST", "/admin/reload",
                  lambda body: asyncio.get_running_loop()
                  .run_in_executor(None, reload_fleet, self.core,
                                   self._admin_fleet, body)),
        ])

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop serving; requests still on the loop are cancelled and
        answered 503, then the loop stops and the clients close."""
        self._http.stop()
        with self._closing_lock:
            if self._closing:
                return
            self._closing = True
            closing = asyncio.run_coroutine_threadsafe(self._close(),
                                                       self._loop)
        closing.result(timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=10.0)
        self._loop.close()
        for clients in self._admin_fleet:
            for client in clients:
                client.close()

    async def _close(self) -> None:
        """Cancel every request still running, and release the shard
        clients' connections."""
        running = asyncio.all_tasks() - {asyncio.current_task()}
        for task in running:
            task.cancel()
        await asyncio.gather(*running, return_exceptions=True)
        for replicas in self.replica_sets:
            await replicas.aclose()

    # ------------------------------------------------------------------
    # request handling (the front door CommunityService.handle uses)
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: bytes) -> Response:
        """Serve one request from a connection thread: it runs on the
        event loop (:meth:`handle_async`); one that :meth:`shutdown`
        cancels, or that comes after it, is a 503. Never raises."""
        with self._closing_lock:
            future = None if self._closing else \
                asyncio.run_coroutine_threadsafe(
                    self.handle_async(method, path, body), self._loop)
        try:
            if future is not None:
                return future.result()
        except concurrent.futures.CancelledError:
            pass
        status, payload = reject(
            ShuttingDown("the router is shutting down"), self.core.metrics)
        return status, UNMATCHED, payload, JSON_CONTENT_TYPE

    async def handle_async(self, method: str, path: str,
                           body: bytes) -> Response:
        """Serve one request; never raises."""
        start = time.perf_counter()
        template = UNMATCHED
        try:
            route, params = self.routes.match(method, path)
            template = route.template
            payload = await route.handler(body, *params)
            if not isinstance(payload, str):
                payload = json.dumps(payload)
            status, content_type = 200, route.content_type
        except Exception as error:  # noqa: BLE001 — boundary: any bug
            # becomes a 500 response rather than a dead connection.
            (status, payload), content_type = (error_reply(error),
                                               JSON_CONTENT_TYPE)
        self.core.metrics.observe_request(
            template, status, time.perf_counter() - start)
        return status, template, payload, content_type

    # ------------------------------------------------------------------
    # fan-out plumbing
    # ------------------------------------------------------------------
    @staticmethod
    async def _fan(calls: Dict[Any, Awaitable[Any]]
                   ) -> Dict[Any, Any]:
        """Await per-shard coroutines concurrently; exceptions
        propagate per entry as the stored value."""
        keys = list(calls)
        results = await asyncio.gather(
            *(calls[key] for key in keys), return_exceptions=True)
        return dict(zip(keys, results))

    async def _leg(self, shard_id: int, path: str,
                   payload: Dict[str, Any]) -> Any:
        """One ``POST`` leg to a shard; returns the response dict, or
        the error that killed the leg (after client retries and
        replica failover)."""
        self.core.count("fanout_legs")
        start = time.perf_counter()
        try:
            response = await self.replica_sets[shard_id].call(
                lambda client: client.request(
                    "POST", path, payload, idempotent=True))
            status = 200
        except ServiceError as error:
            response, status = error, error.status
        self.core.observe_leg(shard_id, status,
                              time.perf_counter() - start)
        return response

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    async def _everywhere(self, path: str,
                          payload: Dict[str, Any]) -> Dict[int, Any]:
        """One ``path`` leg carrying ``payload`` to every shard."""
        return await self._fan({
            replicas.shard_id: self._leg(replicas.shard_id, path,
                                         payload)
            for replicas in self.replica_sets})

    async def _query(self, body: bytes) -> Dict[str, Any]:
        """``POST /query``: one leg per shard, then merge."""
        plan = self.core.parse_query(body)
        start = time.perf_counter()
        responses = await self._everywhere(
            "/query", self.core.shard_payload(
                plan.spec, plan.deadline, plan.want_labels))
        outcome = self.core.reduce(plan, responses)
        return self.core.envelope(
            plan, outcome.communities, answered=len(outcome.answered),
            elapsed=time.perf_counter() - start)

    async def _batch(self, body: bytes) -> Dict[str, Any]:
        """``POST /batch``: the whole batch as one ``/batch`` leg per
        shard — one HTTP round-trip keeps every shard's worker pool
        busy, which is the point of batching — then each entry merged
        from its shards' answers."""
        plans, deadline, want_labels = self.core.parse_batch(body)
        start = time.perf_counter()
        options: Dict[str, Any] = {}
        if deadline is not None:
            options["deadline_seconds"] = deadline
        if want_labels:
            options["labels"] = True
        legs = await self._everywhere("/batch", {
            "queries": [self.core.shard_payload(
                plan.spec, deadline, want_labels) for plan in plans],
            **options})
        envelopes = []
        for position, plan in enumerate(plans):
            outcome = self.core.reduce(plan, {
                shard_id: result["results"][position]
                if isinstance(result, dict) else result
                for shard_id, result in legs.items()})
            envelopes.append(self.core.envelope(
                plan, outcome.communities,
                answered=len(outcome.answered)))
        return {
            "queries": len(envelopes),
            "results": envelopes,
            "elapsed_seconds": time.perf_counter() - start,
        }

    # ------------------------------------------------------------------
    # health + metrics
    # ------------------------------------------------------------------
    async def _metrics(self, body: bytes) -> str:
        """``GET /metrics``: the router's Prometheus scrape."""
        return self.core.render_metrics(self.replica_sets)

    async def _health(self) -> Dict[str, Any]:
        """``GET /healthz``: fan probes to every replica."""
        manifest = self.core.capture()
        responses = await self._fan({
            (replicas.shard_id, index): client.health()
            for replicas in self.replica_sets
            for index, client in enumerate(replicas.clients)})
        return self.core.health_payload(manifest, self.replica_sets,
                                        responses)
