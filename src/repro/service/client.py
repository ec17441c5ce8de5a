"""Python client for the community-query service.

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.server` over stdlib ``http.client`` (no
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
regardless.

**Keep-alive.** Each client owns a small pool of persistent
``http.client.HTTPConnection`` objects, so repeated calls (router
fan-out legs, closed-loop benchmark clients) stop paying TCP setup
per request. A server may close an idle kept-alive connection at any
time — the classic keep-alive race — so an exchange that dies on a
*reused* connection before any response bytes arrive is replayed once
on a fresh connection, regardless of idempotency: the server
provably never started processing it. Failures on a *fresh*
connection keep their usual ambiguous :class:`ServiceUnreachable`
semantics. :attr:`ServiceClient.connections_opened` counts physical
connects (observability for the reuse property).
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.core.community import Community
from repro.service.errors import (
    RETRYABLE_STATUSES,
    ServiceError,
    ServiceUnreachable,
    for_status,
)
from repro.service.serialize import communities_from_dicts

#: Default per-call socket timeout (seconds). Distinct from the
#: server-side request deadline; this guards against a dead server.
DEFAULT_TIMEOUT = 30.0

#: First backoff delay (seconds); doubles each retry.
DEFAULT_BACKOFF_BASE = 0.05

#: Upper bound on a single backoff delay (seconds).
DEFAULT_BACKOFF_CAP = 2.0

#: Most idle kept-alive connections retained per client; extras are
#: closed on check-in. Concurrent callers beyond the cap still work —
#: they just open (and then drop) additional connections.
POOL_CAP = 8

#: Connection-level errors that, on a *reused* keep-alive socket with
#: no response bytes seen, prove the server closed the idle
#: connection before our request — safe to replay once on a fresh
#: connection regardless of idempotency.
_STALE_SOCKET_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    ConnectionResetError,
    BrokenPipeError,
    ConnectionAbortedError,
)


def _retry_after_of(headers: Any) -> Optional[float]:
    """The ``Retry-After`` header as seconds, if parseable.

    Only the delta-seconds form is produced by this service; an
    HTTP-date (or garbage) yields ``None`` rather than an exception —
    a malformed hint must not break error propagation."""
    value = headers.get("Retry-After") if headers else None
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


class ServiceClient:
    """A thin, dependency-free HTTP client for one service base URL."""

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
        self._port = split.port
        self._base_path = split.path.rstrip("/")
        self._pool: List[http.client.HTTPConnection] = []
        self._pool_lock = threading.Lock()

    def close(self) -> None:
        """Close every pooled keep-alive connection (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

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
        data = None
        content_type = None
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        status, headers, body = self._with_retries(
            method, path, data, content_type, idempotent)
        text = body.decode("utf-8")
        if headers.get("Content-Type", "").startswith(
                "application/json"):
            return json.loads(text)
        return text

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
        status, headers, out = self._with_retries(
            method, path, body, content_type if body is not None
            else None, idempotent)
        return out, headers

    def _with_retries(self, method: str, path: str,
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
                return self._attempt(method, path, data, content_type)
            except ServiceError as error:
                status = getattr(error, "status", 500)
                retryable = status in RETRYABLE_STATUSES
                if isinstance(error, ServiceUnreachable) \
                        and not idempotent:
                    retryable = False
                if attempt >= self.retries or not retryable:
                    raise
                time.sleep(self._backoff(
                    attempt, getattr(error, "retry_after", None)))
                self.retries_performed += 1
                attempt += 1

    def _backoff(self, attempt: int,
                 retry_after: Optional[float]) -> float:
        """Delay before retry ``attempt + 1``.

        The server's ``Retry-After`` wins when present (it knows its
        own drain/queue state); otherwise capped exponential backoff
        with full jitter, so a thundering herd of retrying clients
        decorrelates."""
        if retry_after is not None:
            return max(0.0, retry_after)
        cap = min(self.backoff_cap,
                  self.backoff_base * (2.0 ** attempt))
        return cap * self._rng.random()

    def _attempt(self, method: str, path: str,
                 data: Optional[bytes],
                 content_type: Optional[str]
                 ) -> Tuple[int, Dict[str, str], bytes]:
        """One logical HTTP exchange on a kept-alive connection.

        A stale-socket failure on a *reused* connection (the server
        closed it while idle, before any response bytes) is replayed
        exactly once on a fresh connection; every other
        connection-level failure maps to
        :class:`ServiceUnreachable` for the outer retry policy.
        """
        faults.hit("client.request")
        conn, reused = self._checkout()
        try:
            status, headers, body = self._roundtrip(
                conn, method, path, data, content_type)
        except _STALE_SOCKET_ERRORS as error:
            conn.close()
            if not reused:
                raise self._unreachable(error) from None
            conn, _ = self._checkout(fresh=True)
            try:
                status, headers, body = self._roundtrip(
                    conn, method, path, data, content_type)
            except (OSError, http.client.HTTPException) as err:
                conn.close()
                raise self._unreachable(err) from None
        except (OSError, http.client.HTTPException) as error:
            conn.close()
            raise self._unreachable(error) from None
        if headers.get("Connection", "").lower() == "close":
            conn.close()
        else:
            self._checkin(conn)
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

    def _roundtrip(self, conn: http.client.HTTPConnection,
                   method: str, path: str, data: Optional[bytes],
                   content_type: Optional[str]
                   ) -> Tuple[int, Dict[str, str], bytes]:
        """One physical request/response on ``conn``.

        The body is always fully read so the connection is clean for
        the next exchange.
        """
        headers = {"Accept": "application/json",
                   "Connection": "keep-alive"}
        if content_type is not None:
            headers["Content-Type"] = content_type
        conn.request(method, self._base_path + path,
                     body=data, headers=headers)
        response = conn.getresponse()
        body = response.read()
        return (response.status,
                {k: v for k, v in response.getheaders()},
                body)

    def _checkout(self, fresh: bool = False
                  ) -> Tuple[http.client.HTTPConnection, bool]:
        """A connection to the base host: pooled (reused) or new."""
        if not fresh:
            with self._pool_lock:
                if self._pool:
                    return self._pool.pop(), True
        factory = (http.client.HTTPSConnection
                   if self._scheme == "https"
                   else http.client.HTTPConnection)
        self.connections_opened += 1
        return factory(self._host, self._port,
                       timeout=self.timeout), False

    def _checkin(self, conn: http.client.HTTPConnection) -> None:
        """Return a clean connection to the idle pool (cap-bounded)."""
        with self._pool_lock:
            if len(self._pool) < POOL_CAP:
                self._pool.append(conn)
                return
        conn.close()

    def _unreachable(self, error: Exception) -> ServiceUnreachable:
        """Map a connection-level failure onto the error taxonomy."""
        if isinstance(error, (ConnectionRefusedError,
                              socket.gaierror)):
            raised = ServiceUnreachable(
                f"cannot reach {self.base_url}: {error}")
        else:
            # The connection tore mid-exchange (reset, truncated
            # response, timeout during read) — same retryable class
            # as never reaching the server at all.
            raised = ServiceUnreachable(
                f"connection to {self.base_url} failed "
                f"mid-request: {error}")
        raised.retry_after = None
        return raised

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
        payload: Dict[str, Any] = {"k": k}
        if labels:
            payload["labels"] = True
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        response = self._client.request(
            "POST", f"/sessions/{self.id}/next", payload)
        self.last_stats = response.get("stats", {})
        self.exhausted = bool(response.get("exhausted", False))
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
