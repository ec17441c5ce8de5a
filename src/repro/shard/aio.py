"""The scatter-gather router front end, on one asyncio event loop.

Transport half of the router; all routing *policy* lives in
:class:`~repro.shard.routing.RouterCore`:

* :class:`AsyncShardClient` — a dependency-free HTTP/1.1 client over
  raw :func:`asyncio.open_connection`, with the same keep-alive
  pooling, retry/backoff policy, stale-socket replay, and error
  taxonomy as :class:`~repro.service.client.ServiceClient`. Every
  exchange runs under :func:`asyncio.wait_for`, so one hung shard
  costs one leg's deadline, never a blocked thread.
* :class:`AsyncReplicaSet` — one shard's interchangeable backends
  behind a sticky active cursor, failing a leg over to a sibling box
  before the router gives the shard up.
* :class:`AsyncRouterService` — an ``asyncio.start_server`` front
  end. A query is one ``asyncio.gather`` of one leg per eligible
  shard, so its concurrency is bounded by the fleet, not a thread
  pool, and its latency by the slowest leg: each shard enumerates
  only the communities it owns, so one round of ``k`` per shard is
  the whole merge (:mod:`repro.shard.merge`). The admin plane
  (``/admin/reload``, including the cross-box
  ``transfer`` mode) runs the synchronous
  :func:`~repro.shard.routing.reload_fleet` on an executor thread —
  reloads are rare, walk every replica in order, and must not hold
  up the loop.

Endpoints mirror the single-box service where they overlap:

* ``POST /query`` — fanned to the shards whose Bloom admits every
  keyword; PDk answers are the ``k`` cheapest of one leg of ``k`` per
  shard, PDall the union, both in canonical ``(cost, core)`` order. A
  leg that answers with a community its shard does not own counts as
  a failed shard. The response envelope adds ``shards_answered`` /
  ``shards_total`` / ``partial``: a shard whose whole replica set
  times out, sheds, or crashes mid-fan-out costs *coverage*, not
  availability — the router answers ``200`` with what the live
  shards proved.
* ``POST /batch`` — shard-aware batching: one ``/batch`` per shard
  carrying exactly the entries that shard is eligible for, answers
  merged per entry (each entry gets its own partiality fields).
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
import http.client
import json
import random
import socket
import ssl as ssl_module
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, \
    Tuple, Union

from repro.exceptions import QueryError, ServiceError, WorkerError
from repro.service.client import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_TIMEOUT,
    POOL_CAP,
    ServiceClient,
    _retry_after_of,
)
from repro.service.errors import (
    RETRYABLE_STATUSES,
    BadRequest,
    NotFound,
    ServiceUnreachable,
    for_status,
)
from repro.service.server import (
    JSON_CONTENT_TYPE,
    METRICS_CONTENT_TYPE,
    RETRY_AFTER_SECONDS,
    Response,
    content_length,
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

#: Connection-level failures that, on a *reused* keep-alive stream
#: with no response bytes seen, prove the server closed the idle
#: connection before our request — safe to replay once on a fresh
#: connection regardless of idempotency (the async mirror of
#: ``ServiceClient._STALE_SOCKET_ERRORS``).
_STALE_STREAM_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
    ConnectionAbortedError,
)

#: Errors that tear one physical exchange (mapped to
#: :class:`~repro.service.errors.ServiceUnreachable` when not a
#: stale-socket replay). ``TimeoutError`` covers
#: ``asyncio.wait_for`` deadline hits on every supported Python.
_TORN_STREAM_ERRORS = (
    OSError,
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
    EOFError,
)


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


class AsyncShardClient:
    """Async keep-alive HTTP client with ServiceClient's semantics.

    Same base-URL surface, retry policy (429/503 with capped
    exponential backoff + jitter, ``Retry-After`` honored),
    idempotency gating of connection-error retries, stale-socket
    single replay, error taxonomy, and ``connections_opened``
    telemetry as :class:`~repro.service.client.ServiceClient` — but
    every blocking point is an ``await``, and the per-call
    ``timeout`` is enforced with :func:`asyncio.wait_for` per
    physical exchange. Instances belong to one event loop.
    """

    def __init__(self, base_url: str,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = 0,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 retry_seed: Optional[int] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = random.Random(retry_seed)
        #: Lifetime count of retry sleeps this client performed.
        self.retries_performed = 0
        #: Lifetime count of physical TCP connects (reuse telemetry).
        self.connections_opened = 0
        split = urllib.parse.urlsplit(self.base_url)
        self._scheme = split.scheme or "http"
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or (443 if self._scheme == "https"
                                    else 80)
        self._base_path = split.path.rstrip("/")
        self._ssl = (ssl_module.create_default_context()
                     if self._scheme == "https" else None)
        self._pool: List[_Stream] = []

    async def aclose(self) -> None:
        """Close every pooled keep-alive connection (idempotent)."""
        pool, self._pool = self._pool, []
        for stream in pool:
            stream.close()

    # ------------------------------------------------------------------
    # plumbing (the async mirror of ServiceClient's)
    # ------------------------------------------------------------------
    async def request(self, method: str, path: str,
                      payload: Optional[Dict[str, Any]] = None,
                      idempotent: Optional[bool] = None) -> Any:
        """One logical HTTP exchange; JSON in, JSON (or text) out.

        Semantics identical to
        :meth:`~repro.service.client.ServiceClient.request`; see
        there for the retry and idempotency contract.
        """
        data = None
        content_type = None
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        _, headers, body = await self._with_retries(
            method, path, data, content_type, idempotent)
        text = body.decode("utf-8")
        if headers.get("Content-Type", "").startswith(
                "application/json"):
            return json.loads(text)
        return text

    async def _with_retries(self, method: str, path: str,
                            data: Optional[bytes],
                            content_type: Optional[str],
                            idempotent: Optional[bool]
                            ) -> Tuple[int, Dict[str, str], bytes]:
        """The shared retry loop around one logical exchange."""
        if idempotent is None:
            idempotent = method.upper() != "POST"
        attempt = 0
        while True:
            try:
                return await self._attempt(method, path, data,
                                           content_type)
            except ServiceError as error:
                status = getattr(error, "status", 500)
                retryable = status in RETRYABLE_STATUSES
                if isinstance(error, ServiceUnreachable) \
                        and not idempotent:
                    retryable = False
                if attempt >= self.retries or not retryable:
                    raise
                await asyncio.sleep(self._backoff(
                    attempt, getattr(error, "retry_after", None)))
                self.retries_performed += 1
                attempt += 1

    def _backoff(self, attempt: int,
                 retry_after: Optional[float]) -> float:
        """Delay before retry ``attempt + 1`` (Retry-After wins)."""
        if retry_after is not None:
            return max(0.0, retry_after)
        cap = min(self.backoff_cap,
                  self.backoff_base * (2.0 ** attempt))
        return cap * self._rng.random()

    async def _attempt(self, method: str, path: str,
                       data: Optional[bytes],
                       content_type: Optional[str]
                       ) -> Tuple[int, Dict[str, str], bytes]:
        """One logical exchange on a kept-alive stream.

        A stale-socket failure on a *reused* stream (the server
        closed it while idle, before any response bytes) is replayed
        exactly once on a fresh connection; every other torn
        exchange maps to :class:`ServiceUnreachable` for the outer
        retry policy.
        """
        stream, reused = await self._checkout()
        try:
            status, headers, body = await asyncio.wait_for(
                self._roundtrip(stream, method, path, data,
                                content_type),
                timeout=self.timeout)
        except _STALE_STREAM_ERRORS as error:
            stream.close()
            if not reused:
                raise self._unreachable(error) from None
            stream, _ = await self._checkout(fresh=True)
            try:
                status, headers, body = await asyncio.wait_for(
                    self._roundtrip(stream, method, path, data,
                                    content_type),
                    timeout=self.timeout)
            except _TORN_STREAM_ERRORS as err:
                stream.close()
                raise self._unreachable(err) from None
        except _TORN_STREAM_ERRORS as error:
            stream.close()
            raise self._unreachable(error) from None
        if headers.get("Connection", "").lower() == "close":
            stream.close()
        else:
            self._checkin(stream)
        if 200 <= status < 300:
            return status, headers, body
        text = body.decode("utf-8", "replace")
        try:
            message = json.loads(text).get("error", text)
        except (ValueError, AttributeError):
            message = text or f"HTTP {status}"
        raised = for_status(status, message)
        raised.retry_after = _retry_after_of(headers)
        raise raised from None

    async def _roundtrip(self, stream: _Stream, method: str,
                         path: str, data: Optional[bytes],
                         content_type: Optional[str]
                         ) -> Tuple[int, Dict[str, str], bytes]:
        """One physical request/response on ``stream``.

        The body is always fully read so the stream is clean for the
        next exchange. An EOF before the status line raises
        ``RemoteDisconnected`` (the stale-keep-alive signature);
        an EOF mid-response raises ``IncompleteReadError`` (torn).
        """
        body = data or b""
        head = (f"{method} {self._base_path + path} HTTP/1.1\r\n"
                f"Host: {self._host}:{self._port}\r\n"
                f"Accept: application/json\r\n"
                f"Connection: keep-alive\r\n"
                f"Content-Length: {len(body)}\r\n")
        if content_type is not None:
            head += f"Content-Type: {content_type}\r\n"
        stream.writer.write(head.encode("latin-1") + b"\r\n" + body)
        await stream.writer.drain()
        line = await stream.reader.readline()
        if not line:
            raise http.client.RemoteDisconnected(
                "server closed idle keep-alive connection")
        try:
            status = int(line.decode("latin-1").split(None, 2)[1])
        except (IndexError, ValueError, UnicodeDecodeError):
            raise http.client.BadStatusLine(
                line.decode("latin-1", "replace"))
        headers: Dict[str, str] = {}
        while True:
            line = await stream.reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise asyncio.IncompleteReadError(b"", None)
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().title()] = value.strip()
        length = headers.get("Content-Length")
        if length is not None:
            payload = await stream.reader.readexactly(int(length))
        else:
            # No framing info: the server will close to delimit.
            payload = await stream.reader.read()
            headers["Connection"] = "close"
        return status, headers, payload

    async def _checkout(self, fresh: bool = False
                        ) -> Tuple[_Stream, bool]:
        """A stream to the base host: pooled (reused) or new."""
        if not fresh and self._pool:
            return self._pool.pop(), True
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self._host, self._port,
                                        ssl=self._ssl),
                timeout=self.timeout)
        except _TORN_STREAM_ERRORS as error:
            raise self._unreachable(error) from None
        self.connections_opened += 1
        return _Stream(reader, writer), False

    def _checkin(self, stream: _Stream) -> None:
        """Return a clean stream to the idle pool (cap-bounded)."""
        if len(self._pool) < POOL_CAP:
            self._pool.append(stream)
            return
        stream.close()

    def _unreachable(self, error: Exception) -> ServiceUnreachable:
        """Map a connection-level failure onto the error taxonomy."""
        if isinstance(error, (ConnectionRefusedError,
                              socket.gaierror)):
            raised = ServiceUnreachable(
                f"cannot reach {self.base_url}: {error}")
        elif isinstance(error, (asyncio.TimeoutError, TimeoutError)):
            raised = ServiceUnreachable(
                f"request to {self.base_url} exceeded the "
                f"{self.timeout}s leg timeout")
        else:
            raised = ServiceUnreachable(
                f"connection to {self.base_url} failed "
                f"mid-request: {error}")
        raised.retry_after = None
        return raised

    # ------------------------------------------------------------------
    # endpoints the router needs
    # ------------------------------------------------------------------
    async def health(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return await self.request("GET", "/healthz")

    def __repr__(self) -> str:
        return f"AsyncShardClient({self.base_url!r})"


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


class AsyncRouterService:
    """Event-loop scatter-gather front end over a shard fleet.

    Each ``shard_urls`` entry names one shard's replica set — a
    single URL, or comma-separated sibling URLs that serve the same
    shard snapshot (``"http://a:8420,http://b:8420"``); entry ``i``
    serves shard ``i``. ``root`` is the partition root the manifest
    was loaded from; ``/admin/reload`` re-reads it and resolves
    per-shard stores against it. :meth:`start` runs the event loop
    on a background thread and returns once the socket is bound.

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
        self._host_arg = host
        self._port_arg = port
        self._bound: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._conn_tasks: "set[asyncio.Task]" = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The bound interface."""
        if self._bound is None:
            raise ServiceError("async router is not serving yet")
        return self._bound[0]

    @property
    def port(self) -> int:
        """The bound (possibly ephemeral) port."""
        if self._bound is None:
            raise ServiceError("async router is not serving yet")
        return self._bound[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AsyncRouterService":
        """Serve the event loop on a background thread."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run_loop, daemon=True,
                name="repro-router-aio")
            self._thread.start()
            if not self._ready.wait(timeout=10.0):
                raise ServiceError(
                    "async router failed to start within 10s")
            if self._startup_error is not None:
                raise self._startup_error
        return self

    def _run_loop(self) -> None:
        """Own one event loop for the server's whole lifetime."""
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        """Bind, publish readiness, serve until told to stop."""
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._serve_connection, self._host_arg,
                self._port_arg)
        except OSError as error:
            self._startup_error = ServiceError(
                f"cannot bind async router on "
                f"{self._host_arg}:{self._port_arg}: {error}")
            self._ready.set()
            return
        name = server.sockets[0].getsockname()
        self._bound = (name[0], name[1])
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            # Idle keep-alive connections park a task in readline;
            # cancel them so the loop drains instead of destroying
            # pending tasks at close.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
            for replicas in self.replica_sets:
                await replicas.aclose()

    def shutdown(self) -> None:
        """Stop serving, join the loop thread, release clients."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass                         # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._loop = None
        for clients in self._admin_fleet:
            for client in clients:
                client.close()

    def __enter__(self) -> "AsyncRouterService":
        """Context-manager entry (the server need not be started)."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: always shut down."""
        self.shutdown()

    # ------------------------------------------------------------------
    # the asyncio HTTP/1.1 front end
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter
                                ) -> None:
        """One client connection: keep-alive request loop."""
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except BadRequest as error:
                    await self._respond(writer, 400, json.dumps(
                        {"error": str(error), "status": 400}),
                        JSON_CONTENT_TYPE, close=True)
                    break
                if request is None:
                    break
                method, path, req_headers, body = request
                status, _, payload, content_type = \
                    await self.handle_async(method, path, body)
                close = (req_headers.get("Connection", "")
                         .lower() == "close")
                await self._respond(writer, status, payload,
                                    content_type, close)
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass                  # client went away / shutdown
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
            except Exception:  # noqa: BLE001 — transport teardown
                # must never surface through the accept loop.
                pass

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: Union[str, bytes], content_type: str,
                       close: bool) -> None:
        """Write one response in a single send."""
        data = (payload if isinstance(payload, bytes)
                else payload.encode("utf-8"))
        reason = http.client.responses.get(status, "")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(data)}\r\n")
        if status in (429, 503):
            head += f"Retry-After: {RETRY_AFTER_SECONDS}\r\n"
        head += ("Connection: close\r\n" if close
                 else "Connection: keep-alive\r\n")
        writer.write(head.encode("latin-1") + b"\r\n" + data)
        await writer.drain()

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str,
                                                Dict[str, str],
                                                bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on clean EOF.

        Raises :class:`BadRequest`, with the body unread, when its
        ``Content-Length`` is malformed."""
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _ = \
                line.decode("latin-1").split(None, 2)
        except (ValueError, UnicodeDecodeError):
            raise ConnectionResetError("malformed request line")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().title()] = value.strip()
        length = content_length(headers.get("Content-Length"))
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    # ------------------------------------------------------------------
    # request handling (same ladder as CommunityService.handle)
    # ------------------------------------------------------------------
    async def handle_async(self, method: str, path: str,
                           body: bytes) -> Response:
        """Serve one request; never raises."""
        start = time.perf_counter()
        parts = tuple(p for p in path.split("?", 1)[0].split("/")
                      if p)
        template = "/" + "/".join(parts[:2]) if parts else "/"
        try:
            template, result, content_type = await self._route(
                method, parts, body)
            status, payload = 200, result
        except ServiceError as error:
            status = error.status
            payload = json.dumps(
                {"error": str(error), "status": status})
            content_type = JSON_CONTENT_TYPE
        except (QueryError, WorkerError) as error:
            status = 400 if isinstance(error, QueryError) else 503
            payload = json.dumps(
                {"error": str(error), "status": status})
            content_type = JSON_CONTENT_TYPE
        except Exception as error:  # noqa: BLE001 — boundary: any bug
            # becomes a 500 response rather than a dead connection.
            status = 500
            payload = json.dumps({"error": str(error),
                                  "status": 500})
            content_type = JSON_CONTENT_TYPE
        self.core.metrics.observe_request(
            template, status, time.perf_counter() - start)
        return status, template, payload, content_type

    async def _route(self, method: str, parts: Tuple[str, ...],
                     body: bytes) -> Tuple[str, str, str]:
        """Dispatch to a handler; returns (template, body, type)."""
        if method == "GET" and parts == ("metrics",):
            return "/metrics", \
                self.core.render_metrics(self.replica_sets), \
                METRICS_CONTENT_TYPE
        if method == "GET" and parts == ("healthz",):
            return "/healthz", json.dumps(await self._health()), \
                JSON_CONTENT_TYPE
        if method == "POST" and parts == ("query",):
            return "/query", json.dumps(await self._query(body)), \
                JSON_CONTENT_TYPE
        if method == "POST" and parts == ("batch",):
            return "/batch", json.dumps(await self._batch(body)), \
                JSON_CONTENT_TYPE
        if method == "POST" and parts == ("admin", "reload"):
            loop = asyncio.get_running_loop()
            reply = await loop.run_in_executor(
                None, reload_fleet, self.core,
                self._admin_fleet, body)
            return "/admin/reload", json.dumps(reply), \
                JSON_CONTENT_TYPE
        raise NotFound(f"no route {method} /{'/'.join(parts)}")

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

    async def _leg_query(self, shard_id: int,
                         payload: Dict[str, Any]) -> Any:
        """One ``POST /query`` leg; returns the response dict, or
        the error that killed the leg (after client retries and
        replica failover)."""
        replicas = self.replica_sets[shard_id]
        self.core.count("fanout_legs")
        start = time.perf_counter()
        try:
            response = await replicas.call(
                lambda client: client.request(
                    "POST", "/query", payload, idempotent=True))
            self.core.observe_leg(shard_id, 200,
                                  time.perf_counter() - start)
            return response
        except ServiceError as error:
            self.core.observe_leg(shard_id,
                                  getattr(error, "status", 500),
                                  time.perf_counter() - start)
            return error

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    async def _query(self, body: bytes) -> Dict[str, Any]:
        """``POST /query``: one leg per eligible shard, then merge."""
        plan = self.core.parse_query(body)
        start = time.perf_counter()
        payload = self.core.shard_payload(
            plan.spec, plan.spec.k, plan.deadline, plan.want_labels)
        responses = await self._fan({
            shard_id: self._leg_query(shard_id, payload)
            for shard_id in plan.eligible})
        outcome = self.core.reduce(plan, responses)
        return self.core.envelope(
            plan, outcome.communities, answered=len(outcome.answered),
            elapsed=time.perf_counter() - start)

    async def _batch(self, body: bytes) -> Dict[str, Any]:
        """``POST /batch``: shard-aware batched scatter-gather.

        Sends each shard **one** ``/batch`` containing exactly the
        entries it is eligible for — one HTTP round-trip keeps every
        shard's worker pool busy, which is the point of batching —
        then merges each entry from its shards' slices.
        """
        _, plans, deadline, want_labels = \
            self.core.parse_batch(body)
        start = time.perf_counter()

        by_shard: Dict[int, List[int]] = {}
        for entry_index, plan in enumerate(plans):
            for shard_id in plan.eligible:
                by_shard.setdefault(shard_id, []).append(
                    entry_index)

        async def leg_batch(shard_id: int,
                            indexes: List[int]) -> Any:
            """One shard's ``/batch`` leg."""
            bodies = [self.core.shard_payload(
                plans[i].spec, plans[i].spec.k, deadline,
                want_labels) for i in indexes]
            self.core.count("fanout_legs")
            leg_start = time.perf_counter()
            try:
                response = await self.replica_sets[shard_id].call(
                    lambda client: client.request(
                        "POST", "/batch",
                        {"queries": bodies,
                         **({"deadline_seconds": deadline}
                            if deadline is not None else {}),
                         **({"labels": True} if want_labels
                            else {})},
                        idempotent=True))
                self.core.observe_leg(
                    shard_id, 200,
                    time.perf_counter() - leg_start)
                return response
            except ServiceError as error:
                self.core.observe_leg(
                    shard_id, getattr(error, "status", 500),
                    time.perf_counter() - leg_start)
                return error

        legs = await self._fan({
            shard_id: leg_batch(shard_id, indexes)
            for shard_id, indexes in by_shard.items()})

        envelopes = []
        for entry_index, plan in enumerate(plans):
            replies: Dict[int, Any] = {}
            for shard_id in plan.eligible:
                result = legs[shard_id]
                if isinstance(result, dict):
                    position = by_shard[shard_id].index(entry_index)
                    result = result["results"][position]
                replies[shard_id] = result
            outcome = self.core.reduce(plan, replies)
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
    async def _probe(self, client: AsyncShardClient) -> Any:
        """One replica health probe; errors become values."""
        try:
            return await client.health()
        except ServiceError as error:
            return error

    async def _health(self) -> Dict[str, Any]:
        """``GET /healthz``: fan probes to every replica."""
        manifest = self.core.capture()
        responses = await self._fan({
            (replicas.shard_id, index): self._probe(client)
            for replicas in self.replica_sets
            for index, client in enumerate(replicas.clients)})
        return self.core.health_payload(manifest, self.replica_sets,
                                        responses)
