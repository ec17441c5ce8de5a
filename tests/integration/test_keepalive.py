"""Connection reuse: one socket per peer, reconnect-once when stale.

Both HTTP clients — the threaded :class:`ServiceClient` and the
event-loop :class:`AsyncShardClient` — keep sockets alive across
requests: a burst of calls opens exactly one physical connection
(:attr:`connections_opened` is the telemetry the tests read). When a
pooled socket goes stale because the server restarted, the next
request replays once on a fresh connection instead of surfacing the
torn socket to the caller.

The service answers on such a connection without waiting for the
client's delayed ACK, and a request whose body framing is unreadable
(a malformed ``Content-Length``) gets a 400 and a closed connection.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.datasets.paper_example import (
    FIG4_QUERY,
    FIG4_RMAX,
    figure4_graph,
)
from repro.engine import QueryEngine
from repro.service import CommunityService, ServiceClient
from repro.shard.aio import AsyncShardClient

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
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                if b"\r\n\r\n" not in data:
                    continue
                head, _, rest = data.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value.strip())
                while len(rest) < length:
                    rest += conn.recv(65536)
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
