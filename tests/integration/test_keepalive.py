"""Connection reuse: one socket per peer, reconnect-once when stale.

Both HTTP clients — the blocking :class:`ServiceClient` and the
event-loop :class:`AsyncShardClient`, two transports over one
:class:`~repro.service.wire.ClientCore` — keep sockets alive across
requests: a burst of calls opens exactly one physical connection
(:attr:`connections_opened` is the telemetry the tests read). When a
pooled socket goes stale because the server restarted, the next
request replays once on a fresh connection instead of surfacing the
torn socket to the caller.

A reply that is not HTTP as the service sends it (a garbage status
line, an unreadable ``Content-Length``), a refused connect and a
silent server are each a :class:`ServiceUnreachable` on both
clients, and the connection is never pooled; a replica set fails
such a replica over to its sibling. A connection reset after the
first response byte is torn, not stale: a ``POST`` is not replayed.

The service answers on such a connection without waiting for the
client's delayed ACK, and a request whose body framing is unreadable
(a malformed ``Content-Length``) gets a 400 and a closed connection.
"""

import asyncio
import json
import socket
import struct
import threading
import time

import pytest

from repro.datasets.paper_example import (
    FIG4_QUERY,
    FIG4_RMAX,
    figure4_graph,
)
from repro.engine import QueryEngine
from repro.service import (
    CommunityService,
    ServiceClient,
    ServiceUnreachable,
)
from repro.shard.aio import AsyncReplicaSet, AsyncShardClient

from wire_helpers import (
    MEDIAN_BOUND_SECONDS,
    TCP_QUICKACK,
    delayed_ack_round_trips,
    malformed_length_reply,
)


def _service(port=0):
    engine = QueryEngine(figure4_graph())
    engine.build_index(radius=FIG4_RMAX)
    return CommunityService(engine, port=port).start()


BODY = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 1}


def _read_request(conn):
    """Read one request, head and ``Content-Length`` body, off
    ``conn``; ``False`` when the client hung up before a whole head."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return False
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        rest += conn.recv(65536)
    return True


class RudeServer:
    """An HTTP server that advertises keep-alive but hangs up anyway.

    Answers every request 200 with ``Connection: keep-alive``, then
    closes the socket — so a client that pooled the connection finds
    it stale on the next request and must replay on a fresh one. Each
    accepted connection serves exactly one exchange.
    """

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % \
            self._listener.getsockname()[1]
        self.served = 0
        self._thread = threading.Thread(target=self._serve,
                                        daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return               # listener closed: shut down
            with conn:
                if not _read_request(conn):
                    continue
                # Count before answering: once the client holds the
                # reply, the count it reads must already include it.
                self.served += 1
                body = json.dumps({"count": 1}).encode()
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Connection: keep-alive\r\n"
                    b"Content-Length: %d\r\n\r\n%s"
                    % (len(body), body))
            # ``with conn`` closed the socket: the hang-up.

    def close(self):
        # Closing alone does not wake a thread blocked in accept();
        # shutting the listener down does (accept raises OSError).
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5.0)


class TornReplyServer(RudeServer):
    """A keep-alive server that tears its second reply on a connection.

    The first request on a connection gets a whole 200 and the
    connection stays open. The second gets a 200 head announcing
    ``Content-Length: 100`` and 3 body bytes, then a reset
    (``SO_LINGER`` 0): the connection fails after response bytes
    arrived. ``served`` counts the requests it executed.
    """

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return               # listener closed: shut down
            with conn:
                for exchange in range(2):
                    if not _read_request(conn):
                        break
                    self.served += 1
                    if exchange == 0:
                        body = json.dumps({"lsn": self.served}).encode()
                        conn.sendall(
                            b"HTTP/1.1 200 OK\r\n"
                            b"Content-Type: application/json\r\n"
                            b"Connection: keep-alive\r\n"
                            b"Content-Length: %d\r\n\r\n%s"
                            % (len(body), body))
                        continue
                    conn.sendall(b"HTTP/1.1 200 OK\r\n"
                                 b"Content-Type: application/json\r\n"
                                 b"Content-Length: 100\r\n\r\n{\"l")
                    # Let the bytes reach the client before the reset.
                    time.sleep(0.2)
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    struct.pack("ii", 1, 0))


class TestServiceClientKeepAlive:
    def test_burst_reuses_one_connection(self):
        with _service() as service:
            with ServiceClient(service.url, timeout=30.0) as client:
                for _ in range(12):
                    reply = client.request("POST", "/query", BODY)
                    assert reply["count"] == 1
                assert client.connections_opened == 1

    def test_stale_socket_replays_once(self):
        server = RudeServer()
        client = ServiceClient(server.url, timeout=10.0)
        try:
            assert client.request("POST", "/query", BODY,
                                  idempotent=True)["count"] == 1
            assert client.connections_opened == 1
            # The server hung up after answering; the pooled socket
            # is stale. The next request must succeed by replaying
            # once on a fresh connection — invisible to the caller.
            reply = client.request("POST", "/query", BODY,
                                   idempotent=True)
            assert reply["count"] == 1
            assert client.connections_opened == 2
            assert server.served == 2
        finally:
            client.close()
            server.close()


class TestAsyncShardClientKeepAlive:
    def test_burst_reuses_one_stream(self):
        with _service() as service:
            async def drive():
                client = AsyncShardClient(service.url, timeout=30.0)
                try:
                    for _ in range(12):
                        reply = await client.request(
                            "POST", "/query", BODY)
                        assert reply["count"] == 1
                    return client.connections_opened
                finally:
                    await client.aclose()
            assert asyncio.run(drive()) == 1

    def test_stale_stream_replays_once(self):
        server = RudeServer()

        async def scenario():
            client = AsyncShardClient(server.url, timeout=10.0)
            try:
                first = await client.request("POST", "/query", BODY,
                                             idempotent=True)
                assert first["count"] == 1
                assert client.connections_opened == 1
                reply = await client.request("POST", "/query", BODY,
                                             idempotent=True)
                assert reply["count"] == 1
                assert client.connections_opened == 2
            finally:
                await client.aclose()

        try:
            asyncio.run(scenario())
            assert server.served == 2
        finally:
            server.close()


@pytest.fixture(scope="module")
def fig4_service():
    with _service() as service:
        yield service


@pytest.mark.skipif(TCP_QUICKACK is None,
                    reason="TCP_QUICKACK is Linux-only")
class TestDelayedAckFloor:
    """No response waits for the client's ACK of its headers, so a
    pooled connection pays no ~40 ms floor per request."""

    @pytest.mark.parametrize("method,path,body,status", [
        ("POST", "/query", json.dumps({**BODY, "k": 3}), 200),
        ("GET", "/healthz", None, 200),
        ("GET", "/metrics", None, 200),
        ("GET", "/no/such/route", None, 404),
    ], ids=["query", "healthz", "metrics", "not-found"])
    def test_round_trip_stays_under_the_floor(self, fig4_service,
                                              method, path, body,
                                              status):
        median, statuses = delayed_ack_round_trips(
            fig4_service.port, method, path, body)
        assert statuses == {status}
        assert median < MEDIAN_BOUND_SECONDS, f"median {median * 1e3:.1f} ms"


class TestMalformedContentLength:
    @pytest.mark.parametrize("value", [b"abc", b"-1"])
    def test_typed_400_and_the_connection_closes(self, fig4_service,
                                                  value):
        status, headers, body = malformed_length_reply(
            fig4_service.port, value)
        assert status.startswith("HTTP/1.1 400 ")
        assert "Connection: close" in headers
        assert json.loads(body)["status"] == 400


class CannedServer:
    """A listener that answers every request head with the same bytes.

    Each accepted connection is served on its own thread and kept
    open until the client hangs up, so a client that pooled it could
    reuse it. ``b""`` makes a server that never answers.
    """

    def __init__(self, reply):
        self.reply = reply
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % \
            self._listener.getsockname()[1]
        self._conns = []
        self._thread = threading.Thread(target=self._accept,
                                        daemon=True)
        self._thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return               # listener closed: shut down
            self._conns.append(conn)
            threading.Thread(target=self._answer, args=(conn,),
                             daemon=True).start()

    def _answer(self, conn):
        data = b""
        try:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                data += chunk
                while b"\r\n\r\n" in data:
                    _, _, data = data.partition(b"\r\n\r\n")
                    conn.sendall(self.reply)
        except OSError:
            return                   # closed by close()

    def close(self):
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5.0)
        for conn in self._conns:
            conn.close()


def _open(kind, url, **options):
    """A new client of ``kind``, a blocking ``request`` callable on it,
    and its close callable. The async client runs on one private
    loop, so its pool survives between calls."""
    if kind == "blocking":
        client = ServiceClient(url, **options)
        return client, client.request, client.close
    loop = asyncio.new_event_loop()
    client = AsyncShardClient(url, **options)

    def request(*args, **kwargs):
        return loop.run_until_complete(client.request(*args, **kwargs))

    def close():
        loop.run_until_complete(client.aclose())
        loop.close()

    return client, request, close


MALFORMED_REPLIES = {
    "status-line": b"XYZZY\r\n\r\n",
    "length-abc": b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                  b"\r\nContent-Length: abc\r\n\r\n{}",
    "length-negative": b"HTTP/1.1 200 OK\r\nContent-Type: "
                       b"application/json\r\nContent-Length: -1"
                       b"\r\n\r\n{}",
}


@pytest.mark.parametrize("kind", ["blocking", "async"])
class TestUnreachableOnBothClients:
    @pytest.mark.parametrize("reply", list(MALFORMED_REPLIES.values()),
                             ids=list(MALFORMED_REPLIES))
    def test_malformed_reply_is_torn_and_never_pooled(self, kind,
                                                       reply):
        server = CannedServer(reply)
        client, request, close = _open(kind, server.url, timeout=5.0)
        try:
            for _ in range(2):
                with pytest.raises(ServiceUnreachable) as excinfo:
                    request("GET", "/healthz")
                assert excinfo.value.status == 503
                assert excinfo.value.retry_after is None
            # The server kept the first connection open; a second
            # connect shows the client did not pool it.
            assert client.connections_opened == 2
        finally:
            close()
            server.close()

    def test_refused_connect_opens_no_connection(self, kind):
        client, request, close = _open(kind, "http://127.0.0.1:9",
                                       timeout=5.0)
        try:
            with pytest.raises(ServiceUnreachable) as excinfo:
                request("GET", "/healthz")
            assert excinfo.value.retry_after is None
            assert client.connections_opened == 0
        finally:
            close()

    def test_reset_after_response_bytes_never_replays_a_post(self,
                                                             kind):
        server = TornReplyServer()
        client, request, close = _open(kind, server.url, timeout=5.0)
        delta = {"nodes": [], "edges": []}
        try:
            assert request("POST", "/admin/delta", delta)["lsn"] == 1
            # The reply to the second delta tears after 3 body bytes
            # on the reused connection: the server had executed it,
            # so it is torn, not stale, and a POST is not replayed.
            with pytest.raises(ServiceUnreachable):
                request("POST", "/admin/delta", delta)
            assert server.served == 2
            assert client.connections_opened == 1
        finally:
            close()
            server.close()

    def test_silent_server_times_out(self, kind):
        server = CannedServer(b"")
        client, request, close = _open(kind, server.url, timeout=0.3)
        try:
            with pytest.raises(ServiceUnreachable) as excinfo:
                request("GET", "/healthz")
            assert "timeout" in str(excinfo.value)
        finally:
            close()
            server.close()


def test_non_http_replica_fails_over_to_its_sibling():
    garbage = CannedServer(MALFORMED_REPLIES["status-line"])

    async def scenario(live_url):
        replicas = AsyncReplicaSet(0, [garbage.url, live_url])
        try:
            reply = await replicas.call(lambda client: client.request(
                "POST", "/query", BODY, idempotent=True))
            return reply, replicas
        finally:
            await replicas.aclose()

    try:
        with _service() as live:
            reply, replicas = asyncio.run(scenario(live.url))
            assert reply["count"] == 1
            assert replicas.failovers == 1
            assert replicas.active_url == live.url
    finally:
        garbage.close()
