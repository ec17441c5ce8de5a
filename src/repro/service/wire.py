"""The HTTP/1.1 wire format, and the cores both clients and both
servers share.

The service speaks one small dialect of HTTP/1.1: ``Content-Length``
framed messages on kept-alive connections. This module holds that
format once:

* :func:`frame` writes a message, :func:`parse_head` reads a message
  head, and :func:`content_length` reads a body size.
* :class:`ClientCore` is everything an HTTP client of the service
  decides without a socket: the base-URL split and the counters,
  request framing, response-head parsing, 2xx decoding, the status →
  :class:`~repro.exceptions.ServiceError` mapping with ``Retry-After``,
  the retry and idempotency decision with its backoff, the idle
  connection pool, and which transport failures are *stale* (replay
  once) or *torn* (:class:`ServiceUnreachable`). A failure is stale
  only on a reused connection and only before the first response
  byte; each transport raises :class:`StaleConnection` for it.
* The front door of both servers: :class:`RouteTable` matches a
  request to its :class:`Route` row (metric template, handler,
  content type) and path parameters, and :func:`response` writes a
  reply's bytes; :func:`~repro.service.errors.error_reply` maps an
  exception to its status and body, and :func:`reject` counts a
  request refused before routing.

Two thin client transports subclass the core and keep only their
connect, one physical round trip and the sleep between retries:
:class:`~repro.service.client.ServiceClient` on a blocking socket and
:class:`~repro.shard.aio.AsyncShardClient` on an asyncio stream. Both
send and parse the same bytes, so a reply that one client turns into
an answer or an error, the other turns into the same one. Likewise
the two servers (``http.server`` threads, one asyncio loop) keep only
their transports.
"""

from __future__ import annotations

import json
import random
import socket
import ssl
import threading
import urllib.parse
from email.utils import formatdate
from http import HTTPStatus
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple, Union)

from repro.service.errors import (
    RETRYABLE_STATUSES,
    BadRequest,
    NotFound,
    ServiceError,
    ServiceUnreachable,
    error_reply,
    for_status,
)

#: Default per-exchange socket timeout (seconds). Distinct from the
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

#: The blank line that ends every message head.
HEAD_END = b"\r\n\r\n"

#: Longest response head either client reads.
MAX_HEAD_BYTES = 2 ** 16

#: Reason phrases for response status lines.
REASONS = {status.value: status.phrase for status in HTTPStatus}

#: Content type of every JSON body either server sends.
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Content type for the Prometheus exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``Retry-After`` value (seconds) sent with 429/503 sheds.
RETRY_AFTER_SECONDS = 1

#: Largest piece of a request body a server reads at once: a body is
#: read as it arrives, never allocated at its declared size.
BODY_CHUNK = 2 ** 20

#: Seconds a server waits, in all, on a request's head and body once
#: its first byte arrived before answering it with a 400; an idle
#: keep-alive connection is not timed.
BODY_TIMEOUT = 30.0

#: The ``path`` metric label of every request no route matches, so
#: unknown paths add one label, not one each.
UNMATCHED = "{unmatched}"

#: One handled request: status, metric path template, body (text for
#: JSON and metrics, raw bytes for snapshot sections), content type.
Response = Tuple[int, str, Union[str, bytes], str]


class StaleConnection(ConnectionError):
    """The connection failed before any byte of the response arrived.

    On a reused kept-alive connection that is the server closing it
    while idle, so the request is replayed once on a new connection.
    """


class MalformedResponse(Exception):
    """A response whose head or framing is not HTTP/1.1 as sent here."""


#: Failures that tear one physical exchange. Each surfaces as
#: :class:`ServiceUnreachable`; ``OSError`` covers resets, refusals
#: and timeouts, ``EOFError`` a response cut short.
TORN_ERRORS = (OSError, EOFError, MalformedResponse)

#: Failures that, while a request is sent and before the first byte
#: of its response arrives, show the server closed the connection —
#: on a *reused* kept-alive connection, the classic keep-alive race.
#: A transport raises them as :class:`StaleConnection`, and the
#: request is replayed once on a fresh connection, whatever its
#: idempotency. After the first response byte the server had begun
#: to answer, so the same errors tear the exchange: it is replayed
#: only under the retry policy, and only when idempotent.
STALE_ERRORS = (ConnectionResetError, BrokenPipeError,
                ConnectionAbortedError)


def frame(start_line: str, headers: Dict[str, Any],
          body: bytes = b"") -> bytes:
    """One message in wire bytes; ``Content-Length`` comes from ``body``."""
    lines = [start_line]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    lines.extend((f"Content-Length: {len(body)}", "", ""))
    return "\r\n".join(lines).encode("latin-1") + body


def parse_head(head: bytes) -> Tuple[List[str], Dict[str, str]]:
    """A message head's start-line fields and its headers.

    ``head`` runs up to :data:`HEAD_END`. The start line splits into
    at most three fields; header names are title-cased
    (``content-length`` reads as ``Content-Length``).
    """
    start, *lines = head.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        if name:
            headers[name.strip().title()] = value.strip()
    return start.split(None, 2), headers


def _decimal(text: str) -> bool:
    """Whether ``text`` is a plain ASCII decimal count."""
    return text.isascii() and text.isdigit()


def content_length(value: Optional[str]) -> int:
    """A request's body size from its ``Content-Length`` header.

    No header (or an empty one) means no body. Any other value but a
    decimal count raises :class:`BadRequest`: the body's framing is
    then unknown, so the front end answers 400 without reading it and
    closes the connection.
    """
    if not value:
        return 0
    value = value.strip()
    if not _decimal(value):
        raise BadRequest(f"invalid Content-Length: {value!r}")
    return int(value)


class Route(NamedTuple):
    """One route: ``template`` (``{name}`` per parameter segment) is
    also the ``path`` metric label; ``handler(body, *params)`` returns
    the response body, as text, bytes, or a value sent as JSON."""

    method: str
    template: str
    handler: Callable[..., Any]
    content_type: str = JSON_CONTENT_TYPE


class RouteTable:
    """One server's routes. Exact paths are one dict lookup; templated
    rows are tried in table order, so a fixed segment listed first
    (``/admin/snapshot/{id}/manifest``) wins over a parameter."""

    def __init__(self, rows: Iterable[Route]) -> None:
        self._exact: Dict[Tuple[str, str], Route] = {}
        self._templated: List[Tuple[Route, List[str]]] = []
        for row in rows:
            if "{" in row.template:
                self._templated.append(
                    (row, row.template.strip("/").split("/")))
            else:
                self._exact[(row.method, row.template)] = row

    def match(self, method: str, path: str
              ) -> Tuple[Route, Tuple[str, ...]]:
        """The row serving ``method`` on ``path`` (query string and
        empty segments ignored) and its path parameters; no match
        raises :class:`NotFound`, labelled :data:`UNMATCHED`."""
        parts = [part for part in path.partition("?")[0].split("/")
                 if part]
        path = "/" + "/".join(parts)
        row = self._exact.get((method, path))
        if row is not None:
            return row, ()
        for row, segments in self._templated:
            pairs = list(zip(segments, parts))
            if row.method == method and len(segments) == len(parts) \
                    and all(s[0] == "{" or s == p for s, p in pairs):
                return row, tuple(p for s, p in pairs if s[0] == "{")
        raise NotFound(f"no route {method} {path}")


def response(status: int, body: Union[str, bytes], content_type: str,
             close: bool = False) -> bytes:
    """One response in wire bytes, for a single write: ``Retry-After``
    on the transient 429 and 503, so clients need not guess when to
    come back, and ``Connection: close`` when the server hangs up."""
    data = body if isinstance(body, bytes) else body.encode("utf-8")
    headers: Dict[str, Any] = {"Content-Type": content_type,
                               "Date": formatdate(usegmt=True)}
    if status in RETRYABLE_STATUSES:
        headers["Retry-After"] = RETRY_AFTER_SECONDS
    if close:
        headers["Connection"] = "close"
    return frame(f"HTTP/1.1 {status} {REASONS.get(status, '')}",
                 headers, data)


def reject(error: ServiceError, metrics: Any) -> Tuple[int, str]:
    """:func:`error_reply` for a request refused before routing (a bad
    head or body), counted in ``metrics`` under :data:`UNMATCHED`."""
    status, payload = error_reply(error)
    metrics.observe_request(UNMATCHED, status, 0.0)
    return status, payload


class ClientCore:
    """The transport-free half of a keep-alive service client.

    Holds the base URL, the retry budget and backoff, the lifetime
    counters and the idle-connection pool; frames requests, parses
    response heads, and turns a response into its body or its
    :class:`~repro.exceptions.ServiceError`. A transport subclass
    connects, runs one physical round trip and sleeps between
    retries. Pooled connections need only a ``close()`` method.
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
        https = split.scheme == "https"
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or (443 if https else 80)
        self._netloc = split.netloc or self._host
        self._base_path = split.path.rstrip("/")
        self._ssl = ssl.create_default_context() if https else None
        self._pool: List[Any] = []
        self._pool_lock = threading.Lock()

    def close(self) -> None:
        """Close every pooled keep-alive connection (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.base_url!r})"

    # ------------------------------------------------------------------
    # the idle pool
    # ------------------------------------------------------------------
    def _pooled(self) -> Any:
        """An idle kept-alive connection, or ``None``."""
        with self._pool_lock:
            return self._pool.pop() if self._pool else None

    def _release(self, conn: Any, headers: Dict[str, str]) -> None:
        """Pool ``conn`` after a clean exchange (cap-bounded), unless
        the server said it closes it."""
        if headers.get("Connection", "").lower() != "close":
            with self._pool_lock:
                if len(self._pool) < POOL_CAP:
                    self._pool.append(conn)
                    return
        conn.close()

    # ------------------------------------------------------------------
    # bytes out, bytes in
    # ------------------------------------------------------------------
    def _frame_request(self, method: str, path: str,
                       body: Optional[bytes],
                       content_type: Optional[str]) -> bytes:
        """One request on the wire, addressed under the base path."""
        headers = {"Host": self._netloc, "Accept": "application/json",
                   "Connection": "keep-alive"}
        if content_type is not None:
            headers["Content-Type"] = content_type
        return frame(f"{method} {self._base_path}{path} HTTP/1.1",
                     headers, body or b"")

    def _frame_json(self, method: str, path: str,
                    payload: Optional[Dict[str, Any]]) -> bytes:
        """A request whose body is ``payload`` as JSON (none if ``None``)."""
        if payload is None:
            return self._frame_request(method, path, None, None)
        return self._frame_request(
            method, path, json.dumps(payload).encode("utf-8"),
            "application/json")

    @staticmethod
    def _response_head(head: bytes
                       ) -> Tuple[int, Dict[str, str], Optional[int]]:
        """Status, headers and body length of one response head.

        ``head`` is every byte read up to and including
        :data:`HEAD_END`, or up to the end of the stream. No bytes at
        all is a :class:`StaleConnection`; a cut-short head, a
        garbage status line or an unreadable ``Content-Length`` is a
        :class:`MalformedResponse`. With no ``Content-Length`` the body
        runs to the end of the stream (``None``), so the headers are
        marked ``Connection: close``.
        """
        if not head:
            raise StaleConnection("server closed idle keep-alive "
                                  "connection")
        fields, headers = parse_head(head)
        if not (head.endswith(HEAD_END) and len(fields) >= 2
                and fields[0].startswith("HTTP/")
                and len(fields[1]) == 3 and _decimal(fields[1])):
            raise MalformedResponse(
                f"malformed response head {head[:64]!r}")
        length = headers.get("Content-Length")
        if length is None:
            headers["Connection"] = "close"
            return int(fields[1]), headers, None
        if not _decimal(length):
            raise MalformedResponse(
                f"invalid response Content-Length: {length!r}")
        return int(fields[1]), headers, int(length)

    @staticmethod
    def _outcome(status: int, headers: Dict[str, str],
                 body: bytes) -> Tuple[Dict[str, str], bytes]:
        """A 2xx response's headers and body; any other status raises
        its :class:`~repro.exceptions.ServiceError` subclass, carrying
        the server's message and ``Retry-After`` hint."""
        if 200 <= status < 300:
            return headers, body
        text = body.decode("utf-8", "replace")
        try:
            message = json.loads(text).get("error", text)
        except (ValueError, AttributeError):
            message = text or f"HTTP {status}"
        error = for_status(status, message)
        try:
            # Only the delta-seconds form is produced by this service;
            # an HTTP-date (or garbage) hint must not break error
            # propagation.
            error.retry_after = float(headers["Retry-After"])
        except (KeyError, ValueError):
            error.retry_after = None
        raise error

    @staticmethod
    def _decode(headers: Dict[str, str], body: bytes) -> Any:
        """A 2xx body as JSON when typed so, else as text."""
        text = body.decode("utf-8")
        if headers.get("Content-Type", "").startswith(
                "application/json"):
            return json.loads(text)
        return text

    # ------------------------------------------------------------------
    # failure policy
    # ------------------------------------------------------------------
    def _unreachable(self, error: BaseException) -> ServiceUnreachable:
        """Map a torn physical exchange onto the error taxonomy."""
        if isinstance(error, (ConnectionRefusedError, socket.gaierror)):
            return ServiceUnreachable(
                f"cannot reach {self.base_url}: {error}")
        if isinstance(error, (TimeoutError, socket.timeout)):
            return ServiceUnreachable(
                f"request to {self.base_url} exceeded the "
                f"{self.timeout}s timeout")
        # The connection tore mid-exchange (reset, truncated or
        # malformed response) — the same retryable class as never
        # reaching the server at all.
        return ServiceUnreachable(
            f"connection to {self.base_url} failed mid-request: "
            f"{error}")

    def _retry_delay(self, error: ServiceError, attempt: int,
                     method: str,
                     idempotent: Optional[bool]) -> Optional[float]:
        """Seconds to wait before retrying after failed ``attempt``
        (0-based), or ``None`` when ``error`` must escape.

        Only 429/503 retry, and only while the budget lasts. A torn
        connection (:class:`ServiceUnreachable`) may hide a request
        the server already executed, so it retries only when the
        exchange is ``idempotent`` — ``None`` means every method but
        ``POST``. A definitive 429/503 *response* retries regardless:
        the server rejected the request unexecuted.
        """
        if idempotent is None:
            idempotent = method.upper() != "POST"
        if attempt >= self.retries \
                or error.status not in RETRYABLE_STATUSES \
                or (isinstance(error, ServiceUnreachable)
                    and not idempotent):
            return None
        self.retries_performed += 1
        return self._backoff(attempt, error.retry_after)

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
