"""Python client for the community-query service.

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.server` over a plain blocking socket (no
dependencies), re-raising the server's error taxonomy client-side: a
``410`` becomes
:class:`~repro.service.errors.SessionGone`, a ``429``
:class:`~repro.service.errors.Overloaded`, a ``503``
:class:`~repro.service.errors.DeadlineExceeded` — so retry logic is
written against exception types, not status codes.

::

    client = ServiceClient("http://127.0.0.1:8420")
    top = client.query(["kate", "smith"], rmax=6, k=10)

    with client.open_session(["kate", "smith"], rmax=6) as session:
        first = session.next(10)          # ranks 1-10
        more = session.next(40)           # ranks 11-50, no recompute

The CLI's ``serve`` smoke path and the throughput benchmark both
drive the service through this module.

Everything the client decides without a socket — framing, response
parsing, the retry policy below, the error mapping and the idle pool —
is :class:`~repro.service.wire.ClientCore`, which the router's
:class:`~repro.shard.aio.AsyncShardClient` shares; this module keeps
only the blocking transport.

**Retries.** With ``retries=N`` (default 0 — fail fast, the historic
behavior), :meth:`ServiceClient.request` retries transient failures —
HTTP 429/503 and connection-level errors — up to ``N`` times with
capped exponential backoff plus jitter, honoring the server's
``Retry-After`` header when present. Pass ``retry_seed`` for a
deterministic jitter stream (the chaos tests do). Every raised
:class:`~repro.exceptions.ServiceError` carries ``status`` (the class
attribute) and ``retry_after`` (the parsed header, or ``None``), so
callers can build their own policies too.

Connection-level failures are ambiguous — the first attempt may have
executed server-side before the connection tore — so they are only
retried for *idempotent* exchanges: non-``POST`` methods by default,
plus the ``POST`` endpoints that are safe to re-send (``/query`` and
``/batch``, which are stateless reads). Session creation,
``/sessions/{id}/next`` (advances the cursor) and ``/admin/reload``
are never replayed on a torn connection; a definitive 429/503
*response* proves the request was rejected, so those retry
regardless. A response that is not HTTP as the service sends it (a
garbage status line, an unreadable ``Content-Length``) is a torn
connection too.

**Keep-alive.** Each client owns a small pool of persistent
sockets (``TCP_NODELAY`` set), so repeated calls (router admin
legs, closed-loop benchmark clients) stop paying TCP setup per
request. A server may close an idle kept-alive connection at any
time — the classic keep-alive race — so an exchange that dies on a
*reused* connection before any response bytes arrive is replayed once
on a fresh connection, regardless of idempotency: the server
provably never started processing it. Once a response byte has
arrived the server has begun to answer, so a reset after it tears
the exchange like any other. Failures on a *fresh* connection, or
after the first response byte, keep their usual ambiguous
:class:`ServiceUnreachable` semantics.
:attr:`ServiceClient.connections_opened` counts physical connects
that succeeded (observability for the reuse property).
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.core.community import Community
from repro.service.errors import ServiceError
from repro.service.serialize import communities_from_dicts
from repro.service.wire import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_TIMEOUT,
    POOL_CAP,
    STALE_ERRORS,
    TORN_ERRORS,
    ClientCore,
    StaleConnection,
    read_head,
)

__all__ = [
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BACKOFF_CAP",
    "DEFAULT_TIMEOUT",
    "POOL_CAP",
    "ServiceClient",
    "ServiceSession",
]


class _Connection:
    """One kept-alive socket and its buffered reader."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        """Close the reader and the socket."""
        self.rfile.close()
        self.sock.close()


class ServiceClient(ClientCore):
    """A thin, dependency-free blocking HTTP client for one service
    base URL (constructor: :class:`~repro.service.wire.ClientCore`)."""

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: release pooled connections."""
        self.close()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None,
                idempotent: Optional[bool] = None) -> Any:
        """One logical HTTP exchange; JSON in, JSON (or text) out.

        Non-2xx responses raise the matching
        :class:`~repro.exceptions.ServiceError` subclass with the
        server's error message, its HTTP ``status``, and the parsed
        ``retry_after`` (``None`` when the server sent no hint). When
        :attr:`retries` is positive, 429/503 and connection failures
        are retried with capped exponential backoff + jitter before
        the final error escapes; anything else (400/404/410/500)
        fails immediately — retrying a malformed request or a dead
        session cannot succeed.

        ``idempotent`` gates connection-error retries: a torn
        connection (:class:`ServiceUnreachable`) may hide a request
        the server already executed, so it is only retried when the
        exchange is safe to replay. ``None`` (the default) means
        "every method except POST"; pass ``True`` for POSTs that are
        stateless reads (``query``/``batch`` do) or ``False`` to
        forbid replays outright. Definitive 429/503 *responses* are
        retried regardless — the server rejected the request, so it
        did not execute.
        """
        headers, body = self._call(
            method, self._frame_json(method, path, payload), idempotent)
        return self._decode(headers, body)

    def request_raw(self, method: str, path: str,
                    body: Optional[bytes] = None,
                    content_type: str = "application/octet-stream",
                    idempotent: Optional[bool] = None
                    ) -> Tuple[bytes, Dict[str, str]]:
        """Like :meth:`request` but bytes in, bytes out.

        The snapshot-transfer endpoints move binary section payloads
        (packed arrays) that must not round-trip through JSON.
        Returns ``(body, headers)``; non-2xx responses raise the same
        :class:`~repro.exceptions.ServiceError` taxonomy as
        :meth:`request`, and the same retry policy applies.
        """
        headers, out = self._call(method, self._frame_request(
            method, path, body,
            content_type if body is not None else None), idempotent)
        return out, headers

    def _call(self, method: str, request: bytes,
              idempotent: Optional[bool]
              ) -> Tuple[Dict[str, str], bytes]:
        """The retry loop around one logical exchange."""
        attempt = 0
        while True:
            try:
                faults.hit("client.request")
                return self._outcome(*self._exchange(request))
            except ServiceError as error:
                delay = self._retry_delay(error, attempt, method,
                                          idempotent)
                if delay is None:
                    raise
            time.sleep(delay)
            attempt += 1

    def _exchange(self, request: bytes
                  ) -> Tuple[int, Dict[str, str], bytes]:
        """One round trip on a pooled or new connection, replayed
        once on a new one when the pooled one went stale."""
        conn = self._pooled()
        reused = conn is not None
        if conn is None:
            conn = self._connect()
        while True:
            try:
                response = self._roundtrip(conn, request)
            except TORN_ERRORS as error:
                conn.close()
                if not (reused and isinstance(error, StaleConnection)):
                    raise self._unreachable(error) from None
                conn, reused = self._connect(), False
                continue
            self._release(conn, response[1])
            return response

    def _connect(self) -> _Connection:
        """A new connection to the base host."""
        sock = None
        try:
            sock = socket.create_connection((self._host, self._port),
                                            self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._ssl is not None:
                sock = self._ssl.wrap_socket(
                    sock, server_hostname=self._host)
        except OSError as error:
            if sock is not None:
                sock.close()
            raise self._unreachable(error) from None
        self.connections_opened += 1
        return _Connection(sock)

    def _roundtrip(self, conn: _Connection, request: bytes
                   ) -> Tuple[int, Dict[str, str], bytes]:
        """One physical request/response on ``conn``.

        The body is always fully read so the connection is clean for
        the next exchange.
        """
        try:
            conn.sock.sendall(request)
            head = conn.rfile.read(1)
        except STALE_ERRORS as error:
            raise StaleConnection(str(error)) from None
        status, headers, length = self._response_head(
            read_head(conn.rfile, head))
        body = conn.rfile.read(length)
        if length is not None and len(body) < length:
            raise EOFError("response body cut short")
        return status, headers, body

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self.request("GET", "/healthz")

    def metrics(self) -> str:
        """``GET /metrics`` — the raw Prometheus text."""
        return self.request("GET", "/metrics")

    def admin_reload(self, path: Optional[str] = None,
                     snapshot: Optional[str] = None
                     ) -> Dict[str, Any]:
        """``POST /admin/reload``: swap onto the newest snapshot.

        With ``path`` given, the server reloads from that snapshot
        directory or store root instead of its configured source.
        With ``snapshot`` given, the server resolves that snapshot id
        against its own configured store — the cross-box form, which
        needs no caller-visible filesystem paths. Returns the
        server's ``{reloaded, snapshot, generation, ...}`` payload.
        """
        payload: Dict[str, Any] = {}
        if path is not None:
            payload["path"] = path
        if snapshot is not None:
            payload["snapshot"] = snapshot
        return self.request("POST", "/admin/reload", payload)

    def admin_delta(self, nodes: Sequence[Dict[str, Any]] = (),
                    edges: Sequence[Sequence[Any]] = (),
                    banks_reweight: bool = False) -> Dict[str, Any]:
        """``POST /admin/delta``: ingest one graph delta.

        ``nodes`` are ``{"keywords": [...], "label": ...,
        "provenance": [table, key] | null}`` objects (ids are
        assigned densely after the existing nodes); ``edges`` are
        ``[source, target, weight]`` triples, endpoints referencing
        existing or just-added nodes. Returns the server's ``{lsn,
        nodes_added, edges_added, generation, ...}`` payload — with a
        WAL attached, a returned ``lsn`` is durably acknowledged.

        Deliberately **not** marked idempotent: a delta re-applied on
        a torn connection would double-grow the graph, so connection
        failures surface instead of replaying (a definitive 429/503
        response still retries — the server rejected it unexecuted).
        """
        payload: Dict[str, Any] = {
            "nodes": list(nodes),
            "edges": [list(edge) for edge in edges],
        }
        if banks_reweight:
            payload["banks_reweight"] = True
        return self.request("POST", "/admin/delta", payload)

    def query(self, keywords: Sequence[str], rmax: float,
              k: Optional[int] = None, algorithm: str = "pd",
              aggregate: str = "sum",
              deadline_seconds: Optional[float] = None,
              labels: bool = False, mode: Optional[str] = None
              ) -> Dict[str, Any]:
        """``POST /query``: one-shot COMM-all (no ``k``) or COMM-k.

        Returns the raw response dict; :meth:`query_communities`
        returns :class:`~repro.core.community.Community` objects
        instead.
        """
        payload: Dict[str, Any] = {
            "keywords": list(keywords), "rmax": rmax,
            "algorithm": algorithm, "aggregate": aggregate,
        }
        if k is not None:
            payload["k"] = k
        if mode is not None:
            payload["mode"] = mode
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        if labels:
            payload["labels"] = True
        # A query is a stateless read: safe to replay on a torn
        # connection even though it is a POST.
        return self.request("POST", "/query", payload,
                            idempotent=True)

    def query_communities(self, keywords: Sequence[str], rmax: float,
                          **options: Any) -> List[Community]:
        """Like :meth:`query`, decoded to ``Community`` objects."""
        response = self.query(keywords, rmax, **options)
        return communities_from_dicts(response["communities"])

    def batch(self, queries: Sequence[Dict[str, Any]],
              deadline_seconds: Optional[float] = None,
              labels: bool = False) -> Dict[str, Any]:
        """``POST /batch``: many queries in one request, in order.

        Each entry is a ``/query``-shaped dict (``keywords``,
        ``rmax``, optional ``k``/``algorithm``/``aggregate``/...).
        Against a multi-worker server the entries run concurrently on
        the worker processes; the response's ``results`` list matches
        the request order, one query envelope per entry.
        """
        payload: Dict[str, Any] = {"queries": list(queries)}
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        if labels:
            payload["labels"] = True
        return self.request("POST", "/batch", payload,
                            idempotent=True)

    def open_session(self, keywords: Sequence[str], rmax: float,
                     aggregate: str = "sum",
                     ttl_seconds: Optional[float] = None,
                     deadline_seconds: Optional[float] = None
                     ) -> "ServiceSession":
        """``POST /sessions``: lease an interactive PDk stream."""
        payload: Dict[str, Any] = {
            "keywords": list(keywords), "rmax": rmax,
            "aggregate": aggregate,
        }
        if ttl_seconds is not None:
            payload["ttl_seconds"] = ttl_seconds
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        response = self.request("POST", "/sessions", payload)
        return ServiceSession(self, response)


class ServiceSession:
    """Client handle on one server-side PDk lease.

    ``next(k)`` enlarges the answer set by up to ``k`` ranked
    communities; the cumulative server-side stats ride along on
    :attr:`last_stats` (their ``project`` timing stays flat across
    calls — the no-recomputation property, observable from here).
    """

    def __init__(self, client: ServiceClient,
                 opened: Dict[str, Any]) -> None:
        self._client = client
        self.id: str = opened["session"]
        self.generation: str = opened["generation"]
        self.ttl_seconds: float = opened["ttl_seconds"]
        #: Cumulative session stats from the most recent response.
        self.last_stats: Dict[str, Any] = opened.get("stats", {})
        self.exhausted = False

    def next(self, k: int = 10, labels: bool = False,
             deadline_seconds: Optional[float] = None
             ) -> List[Community]:
        """Up to ``k`` further communities (410 -> ``SessionGone``)."""
        options: Dict[str, Any] = {}
        if labels:
            options["labels"] = True
        if deadline_seconds is not None:
            options["deadline_seconds"] = deadline_seconds
        response = self.next_raw(k, **options)
        return communities_from_dicts(response["communities"])

    def next_raw(self, k: int = 10, **options: Any) -> Dict[str, Any]:
        """Like :meth:`next` but returning the raw response dict."""
        payload: Dict[str, Any] = {"k": k}
        payload.update(options)
        response = self._client.request(
            "POST", f"/sessions/{self.id}/next", payload)
        self.last_stats = response.get("stats", {})
        self.exhausted = bool(response.get("exhausted", False))
        return response

    def close(self) -> None:
        """``DELETE /sessions/{id}`` (idempotent)."""
        self._client.request("DELETE", f"/sessions/{self.id}")

    def __enter__(self) -> "ServiceSession":
        """Context-manager entry."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: release the lease."""
        try:
            self.close()
        except ServiceError:
            pass                 # already gone / server shutting down
