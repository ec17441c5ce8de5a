"""Helpers shared by the integration tests that speak raw HTTP on a
socket (imported by name — the tests directories are not packages)."""

import http.client
import socket
import statistics
import time

#: Linux only: the switch that arms a connection's delayed ACK.
TCP_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

#: The median round trip a connection must beat to show no floor: a
#: response that waits for the client's delayed ACK takes about 40 ms,
#: and every route tested answers in a few ms without it.
MEDIAN_BOUND_SECONDS = 0.020


def delayed_ack_round_trips(port, method, path, body=None,
                            requests=15):
    """Back-to-back requests on one keep-alive connection, each sent
    with the client's delayed ACK armed (``TCP_QUICKACK`` off), as on
    a busy pooled connection. Returns (median seconds, statuses)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    seconds, statuses = [], set()
    try:
        for _ in range(requests):
            if conn.sock is None:
                conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, TCP_QUICKACK, 0)
            start = time.perf_counter()
            conn.request(method, path, body=body)
            reply = conn.getresponse()
            reply.read()
            seconds.append(time.perf_counter() - start)
            statuses.add(reply.status)
    finally:
        conn.close()
    return statistics.median(seconds), statuses


def malformed_length_reply(port, value):
    """Send a ``POST /query`` head whose ``Content-Length`` is
    ``value`` and read the reply until the server hangs up (2 s at
    most). Returns (status line, header lines, body bytes)."""
    return raw_reply(port, b"Content-Length: " + value)


def raw_reply(port, header):
    """Send a ``POST /query`` head carrying the raw ``header`` line
    and read the reply until the server hangs up (2 s at most).
    Returns (status line, header lines, body bytes). A server that
    closes with part of the request unread resets the connection;
    the reply read before the reset is kept."""
    return raw_exchange(port, b"POST /query HTTP/1.1\r\nHost: test\r\n"
                        + header + b"\r\n\r\n")


def raw_exchange(port, request, half_close=False):
    """Send the raw ``request`` bytes — then, with ``half_close``, shut
    the sending side — and read the reply until the server hangs up
    (2 s at most). Returns (status line, header lines, body bytes),
    as :func:`raw_reply` does."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=2.0) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status, *headers = head.decode("latin-1").split("\r\n")
    return status, headers, body
