"""The HTTP/1.1 wire format, and the cores both clients and both
servers share.

The service speaks one small dialect of HTTP/1.1: ``Content-Length``
framed messages on kept-alive connections. This module holds that
format once:

* :func:`frame` writes a message, :func:`read_head` and
  :func:`parse_head` read a message head, and :func:`content_length`
  reads a body size.
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
* The one server transport: :class:`Transport` holds a thread per
  client connection, whose :class:`ServiceHandler` reads each
  kept-alive request under one deadline, refuses a bad head or body
  and answers the rest through its server's ``handle(method, path,
  body)``; :class:`FrontEnd` is the lifecycle both servers build on
  it (bind at construction, serve, shut down).

Two thin client transports subclass the core and keep only their
connect, one physical round trip and the sleep between retries:
:class:`~repro.service.client.ServiceClient` on a blocking socket and
:class:`~repro.shard.aio.AsyncShardClient` on an asyncio stream. Both
send and parse the same bytes, so a reply that one client turns into
an answer or an error, the other turns into the same one. Likewise
both servers, :class:`~repro.service.server.CommunityService` and
:class:`~repro.shard.aio.AsyncRouterService`, read and answer every
request through the one transport, so one request gets one answer
from either.
"""

from __future__ import annotations

import io
import json
import random
import socket
import socketserver
import ssl
import threading
import time
import urllib.parse
from email.utils import formatdate
from http import HTTPStatus
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple, Union)

from repro.service.errors import (
    RETRYABLE_STATUSES,
    BadRequest,
    HeadTooLarge,
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

#: Longest message head read: a longer request head is a 431, a
#: longer response head a malformed response.
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


def read_head(rfile: Any, head: bytes = b"") -> bytes:
    """A message head read line by line off ``rfile`` after its first
    bytes ``head``, through the blank line that ends it.

    Lines end in CRLF or a bare LF (RFC 9112 §2.2). The head comes
    back cut short, without its blank line, at the end of the stream,
    and once it is longer than :data:`MAX_HEAD_BYTES`; the caller
    refuses either.
    """
    while True:
        line = rfile.readline(MAX_HEAD_BYTES + 1 - len(head))
        head += line
        if line in (b"\r\n", b"\n") or not line.endswith(b"\n") \
                or len(head) > MAX_HEAD_BYTES:
            return head


def parse_head(head: bytes) -> Tuple[List[str], Dict[str, str]]:
    """A message head's start-line fields and its headers.

    ``head`` runs up to its blank line, its lines ending in CRLF or a
    bare LF. The start line splits into at most three fields; header
    names are title-cased (``content-length`` reads as
    ``Content-Length``), and a header sent more than once reads as its
    values joined by ``", "``, as a list-valued one does, so a
    repeated ``Content-Length`` keeps every value it came with.
    """
    start, *lines = head.decode("latin-1").split("\n")
    headers: Dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        name, value = name.strip().title(), value.strip()
        if name:
            headers[name] = f"{headers[name]}, {value}" \
                if name in headers else value
    return start.rstrip("\r").split(None, 2), headers


def _decimal(text: str) -> bool:
    """Whether ``text`` is a plain ASCII decimal count."""
    return text.isascii() and text.isdigit()


def content_length(value: Optional[str]) -> int:
    """A request's body size from its ``Content-Length`` header.

    No header (or an empty one) means no body, and repeats of one
    count (``42, 42``) read as that count. Conflicting counts, or any
    other value but a decimal count, raise :class:`BadRequest`: the
    body's framing is then unknown, so the front end answers 400
    without reading it and closes the connection (RFC 9112 §6.3).
    """
    if not value:
        return 0
    counts = {count.strip() for count in value.split(",")}
    if len(counts) > 1:
        raise BadRequest(f"conflicting Content-Length values: {value!r}")
    count = counts.pop()
    if not _decimal(count):
        raise BadRequest(f"invalid Content-Length: {value!r}")
    return int(count)


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


class _RequestReader(socket.SocketIO):
    """A connection's raw reader under one request deadline: while
    ``deadline`` (a :func:`time.monotonic` instant) is set, each read
    waits only for what is left of it, so a request that trickles in
    cannot re-arm its timeout byte by byte. A read past the deadline
    is a :class:`BadRequest`."""

    deadline: Optional[float] = None

    def readinto(self, buffer) -> Optional[int]:
        """One socket read, within what is left of the deadline."""
        try:
            if self.deadline is not None:
                left = self.deadline - time.monotonic()
                if left <= 0:
                    raise socket.timeout
                self._sock.settimeout(left)
            return super().readinto(buffer)
        except socket.timeout:
            raise BadRequest("request stalled before its end") from None


class ServiceHandler(socketserver.BaseRequestHandler):
    """One client connection of either server: its kept-alive
    requests, one at a time (the rules: DESIGN.md §13).

    Waits untimed for a request's first byte (an idle keep-alive
    connection has no deadline), then gives its head and body
    :data:`BODY_TIMEOUT` in all. A head over :data:`MAX_HEAD_BYTES`
    is a 431; a malformed request line, a ``Content-Length`` other
    than one decimal count (repeated or not), and a head or body that
    stalls or ends early are a 400; any ``Transfer-Encoding`` is a
    501, read no further, since every client here frames with
    ``Content-Length``. Each is refused through :func:`reject`, and
    the connection closes. Any other request is answered by the
    server's ``handle(method, path, body)``, after a ``100 Continue``
    if it expects one, on a connection that stays open unless the
    request said ``Connection: close`` or is HTTP/1.0 without
    ``Connection: keep-alive``. Head lines may end in a bare LF.
    """

    #: The request target of the request being served.
    path = ""

    def setup(self) -> None:
        """``TCP_NODELAY`` on the connection (a response larger than
        one segment must not hold its last segment back for the
        client's delayed ACK, about 40 ms), and reads through a
        :class:`_RequestReader`."""
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY,
                                True)
        self._reader = _RequestReader(self.request, "rb")
        self.rfile = io.BufferedReader(self._reader)
        self.close_connection = False

    def handle(self) -> None:
        """Answer requests until one closes the connection or the
        client goes away."""
        try:
            while not self.close_connection:
                head = self.rfile.read(1)
                if not head:
                    return
                self._reader.deadline = time.monotonic() + BODY_TIMEOUT
                try:
                    self._dispatch(self._read_head(head))
                except ServiceError as error:
                    self._respond(*reject(error, self.server.metrics),
                                  JSON_CONTENT_TYPE, close=True)
        except OSError:
            pass                                # the client went away

    def finish(self) -> None:
        """Release the reader; the server closes the socket."""
        self.rfile.close()

    def _read_head(self, head: bytes) -> str:
        """The method of the request whose head begins with ``head``;
        sets :attr:`path`, ``headers`` and ``close_connection``."""
        head = read_head(self.rfile, head)
        if len(head) > MAX_HEAD_BYTES:
            raise HeadTooLarge(f"request head exceeds {MAX_HEAD_BYTES} "
                               f"bytes")
        if not head.endswith(b"\n"):
            raise ConnectionAbortedError("request head cut short")
        fields, self.headers = parse_head(head)
        if len(fields) != 3 or not fields[2].startswith("HTTP/"):
            raise BadRequest(
                f"malformed request line {' '.join(fields)[:64]!r}")
        method, self.path, version = fields
        tokens = {token.strip() for token in
                  self.headers.get("Connection", "").lower().split(",")}
        self.close_connection = "close" in tokens or (
            version == "HTTP/1.0" and "keep-alive" not in tokens)
        if "Transfer-Encoding" in self.headers:
            raise for_status(501, "Transfer-Encoding is not supported: "
                                  "frame the body with Content-Length")
        return method

    def _dispatch(self, method: str) -> None:
        """Read the request's body, answer it through the server's
        ``handle`` and write the response."""
        status, _, payload, content_type = self.server.handle(
            method, self.path, self._read_body())
        self._respond(status, payload, content_type)

    def _read_body(self) -> bytes:
        """The request body, read as it arrives in pieces of at most
        :data:`BODY_CHUNK` bytes within the request's deadline, which
        is lifted here."""
        length = content_length(self.headers.get("Content-Length"))
        if self.headers.get("Expect", "").lower() == "100-continue":
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        chunks = []
        while length:
            chunk = self.rfile.read(min(length, BODY_CHUNK))
            if not chunk:
                raise BadRequest(
                    "request body ends before its Content-Length")
            chunks.append(chunk)
            length -= len(chunk)
        self._reader.deadline = None
        self.request.settimeout(None)
        return b"".join(chunks)

    def _respond(self, status: int, payload: Union[str, bytes],
                 content_type: str, close: bool = False) -> None:
        """Write one response; ``close`` (or a request that asked for
        it) hangs up after it."""
        self.close_connection = close or self.close_connection
        self.request.sendall(response(status, payload, content_type,
                                      self.close_connection))


class Transport(socketserver.ThreadingTCPServer):
    """The HTTP/1.1 transport of both servers: one
    :class:`ServiceHandler` thread per client connection, answering
    through ``handle(method, path, body) -> Response`` (which never
    raises) and counting refusals in ``metrics``.

    Threads, not an event loop: the service's handlers block on
    admission and pool futures. Binds at construction; a taken
    address is a :class:`ServiceError`.
    """

    daemon_threads = True
    allow_reuse_address = True
    #: Connects the kernel queues while the accept thread is busy.
    request_queue_size = 128

    def __init__(self, host: str, port: int,
                 handle: Callable[[str, str, bytes], Response],
                 metrics: Any) -> None:
        self.handle = handle
        self.metrics = metrics
        self._serving = False
        self._thread: Optional[threading.Thread] = None
        try:
            super().__init__((host, port), ServiceHandler)
        except OSError as error:
            raise ServiceError(
                f"cannot bind {host}:{port}: {error}") from None

    def start(self) -> None:
        """Serve on a background thread."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self.serve_forever, daemon=True,
                name="repro-http-accept")
            self._thread.start()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve on the calling thread until :meth:`stop`."""
        self._serving = True
        super().serve_forever(poll_interval)

    def stop(self) -> None:
        """Stop accepting and close the listening socket. Safe on a
        transport that never served: ``shutdown`` alone would wait
        for a ``serve_forever`` that never runs."""
        if self._serving:
            self.shutdown()
            self._serving = False
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class FrontEnd:
    """The lifecycle both servers share over their :class:`Transport`
    (``_http``, bound at construction, so :attr:`port` is known at
    once); each server's ``shutdown`` stops it. A front end is a
    context manager that shuts down on exit::

        with CommunityService(engine).start() as service:
            client = ServiceClient(service.url)
            ...
    """

    _http: Transport

    @property
    def host(self) -> str:
        """The bound interface."""
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        """The bound (possibly ephemeral) port."""
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> Any:
        """Serve on a background thread; returns ``self``
        (chainable)."""
        self._http.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._http.serve_forever()

    def __enter__(self) -> Any:
        """Context-manager entry (the server need not be started)."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: always shut down."""
        self.shutdown()


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
