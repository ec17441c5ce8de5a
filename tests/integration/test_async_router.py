"""The asyncio router over real sockets, against one unsharded box.

Acceptance coverage for the router:

* **single-box identity** — the routed ``/query`` and ``/batch``
  answers equal an unsharded service's on the same graph, on fig4
  and on seeded property-test graphs, under the k-boundary tie rule
  (see :func:`_assert_same_answer`);
* **split enumeration** — on tiny DBLP the shard backends together
  enumerate exactly the unsharded answer count (each only the
  communities it owns), and a routed top-k query costs one merge
  round and one leg per shard;
* **replica failover** — a killed primary with a live sibling still
  yields the exact, non-partial answer, increments
  ``repro_router_failover_total`` once, and the promoted sibling
  stays sticky;
* **concurrent reload** — queries in flight while ``/admin/reload``
  rolls the fleet complete on the origin generation, including a
  reload that fails and rolls back mid-query;
* **cross-box transfer reload** — ``{"transfer": true}`` pushes shard
  snapshots over the wire and survives a mid-transfer checksum
  mismatch with a fleet-wide rollback;
* **the wire** — a routed read pays no delayed-ACK floor on any hop,
  and a malformed ``Content-Length`` gets a typed 400 and a closed
  connection;
* **one front door** — on the service and the router alike, a
  malformed request line, a head that stalls and a body that ends or
  stalls before its ``Content-Length`` get a typed 400 with a status
  line and a closed connection, each rejection is counted under the
  ``{unmatched}`` label, and unknown paths add that one ``path``
  metric label, not one each;
* **one transport** — the same raw bytes get the same answer from
  both: ``Transfer-Encoding`` is one 501 and a close (a chunked
  body is never answered as a request), conflicting
  ``Content-Length`` values a 400 and a close, a bare-LF head the
  answer of its CRLF twin, HTTP/1.0 a close unless kept alive, an
  unknown method the route table's 404 on an open connection, and
  ``Expect: 100-continue`` a ``100 Continue`` before the body;
* **one request parser** — a query field the service refuses is a
  400 from the router too, on ``/query`` and in a ``/batch`` entry;
* **a shard's refusal is the router's** — an unknown keyword and an
  ``rmax`` above the index radius get the single box's status and
  message from the router, on ``/query`` and on ``/batch``;
* **one request format** — every leg carries the whole spec, so a
  ``budget_seconds`` censors a routed BU/TD COMM-all as it censors
  the single box's.
"""

import http.client
import json
import re
import socket
import threading
import time

import pytest

from repro import faults
from repro.datasets.paper_example import (
    FIG4_QUERY,
    FIG4_RMAX,
    figure4_graph,
)
from repro.engine.engine import QueryEngine
from repro.exceptions import ServiceError
from repro.graph.generators import random_database_graph
from repro.service import (
    BadRequest,
    CommunityService,
    NotFound,
    ServiceClient,
)
from repro.service import wire
from repro.service.wire import UNMATCHED
from repro.shard import partition_snapshot
from repro.shard.aio import AsyncRouterService
from repro.snapshot import read_manifest
from repro.snapshot.store import SnapshotStore
from repro.text.inverted_index import CommunityIndex

from wire_helpers import (
    MEDIAN_BOUND_SECONDS,
    TCP_QUICKACK,
    delayed_ack_round_trips,
    malformed_length_reply,
    raw_exchange,
    raw_reply,
)


def _norm(response):
    return sorted((tuple(c["core"]), round(c["cost"], 9))
                  for c in response["communities"])


def _clean(response):
    """A response with its volatile fields dropped: timing, and the
    cache provenance markers (``cached``/``shards_cached``), which
    legitimately depend on what ran before — the *answers* must not."""
    out = dict(response)
    out.pop("elapsed_seconds", None)
    out.pop("cached", None)
    out.pop("shards_cached", None)
    if "results" in out:
        out["results"] = [_clean(r) for r in out["results"]]
    return out


def _keys(response):
    """``(cost, core)`` per community, in response order."""
    return [(round(c["cost"], 9), tuple(c["core"]))
            for c in response["communities"]]


def _assert_same_answer(routed, single, body, reference):
    """The routed answer equals the unsharded one, under the
    k-boundary tie rule of DESIGN.md §10.

    Costs match rank by rank, and the router answers in canonical
    ``(cost, core)`` order. A complete answer (COMM-all, or fewer
    than ``k`` communities) matches core for core. A top-``k``
    prefix matches core for core below its ``k``-th cost; the routed
    cores at that cost must be a subset of the whole tie group, read
    from the reference's COMM-all answer.
    """
    got, want = _keys(routed), _keys(single)
    assert routed["count"] == single["count"]
    assert got == sorted(got)
    assert [cost for cost, _ in got] == sorted(cost for cost, _ in want)
    k = body.get("k")
    if k is None or len(got) < k:
        assert set(got) == set(want)
        return
    boundary = got[-1][0]
    assert {key for key in got if key[0] < boundary} \
        == {key for key in want if key[0] < boundary}
    every = reference.request("POST", "/query", {
        **{name: value for name, value in body.items()
           if name != "k"}, "mode": "all"})
    tied = {key for key in _keys(every) if key[0] == boundary}
    assert {key for key in got if key[0] == boundary} <= tied


def _partition(tmp, dbg, radius, parts_name, shards=2):
    """Publish ``dbg`` at ``radius`` and partition the latest."""
    SnapshotStore(tmp / "store").publish(
        dbg, CommunityIndex.build(dbg, radius),
        provenance={"index_radius": radius})
    manifest, _ = partition_snapshot(tmp / "store", tmp / parts_name,
                                     shards)
    return manifest


def _single_box(tmp):
    """An unsharded service on the store's latest snapshot."""
    return CommunityService(
        QueryEngine.from_snapshot(SnapshotStore(tmp / "store").resolve()),
        port=0).start()


def _start_backends(manifest, parts_root, replicas=1, stores=None):
    """One :class:`CommunityService` per shard replica.

    ``stores`` maps ``(shard_id, replica)`` to each box's snapshot
    source; ``None`` defaults every replica to its shard's partition
    store (shared-filesystem layout).
    """
    services, urls = [], []
    for entry in manifest.shards:
        snapshot_dir = parts_root / entry.store / entry.snapshot_id
        group = []
        for index in range(replicas):
            if stores is None:
                source = parts_root / entry.store
            else:
                source = stores[(entry.shard_id, index)]
            engine = QueryEngine.from_snapshot(snapshot_dir)
            group.append(CommunityService(
                engine, port=0, snapshot_source=source).start())
        services.append(group)
        urls.append(",".join(s.url for s in group))
    return services, urls


def _stop(*closables):
    for closable in closables:
        closable.shutdown()


FIG4_BODIES = (
    {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 1},
    {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 3},
    {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 50},
    {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "mode": "all"},
    {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "mode": "all",
     "labels": True},
)


#: The index radius the fig4 fleet and its single box are built at.
FIG4_INDEX_RADIUS = 10.0


@pytest.fixture(scope="module")
def fig4_fleet(tmp_path_factory):
    """The router over a two-shard fig4 fleet, and one unsharded
    service on the same graph."""
    tmp = tmp_path_factory.mktemp("fig4")
    manifest = _partition(tmp, figure4_graph(), FIG4_INDEX_RADIUS,
                          "parts")
    shards, urls = _start_backends(manifest, tmp / "parts")
    router = AsyncRouterService(manifest, urls,
                                root=tmp / "parts").start()
    single = _single_box(tmp)
    yield router, single
    _stop(router, single, *[s for g in shards for s in g])


class TestByteIdentity:
    def test_query_responses_identical(self, fig4_fleet):
        router, single = fig4_fleet
        routed = ServiceClient(router.url, timeout=30.0)
        reference = ServiceClient(single.url, timeout=30.0)
        for body in FIG4_BODIES:
            got = routed.request("POST", "/query", body)
            _assert_same_answer(
                got, reference.request("POST", "/query", body), body,
                reference)
            assert got["partial"] is False
            assert got["shards_answered"] == 2

    def test_batch_responses_identical(self, fig4_fleet):
        router, single = fig4_fleet
        reference = ServiceClient(single.url, timeout=30.0)
        body = {"queries": [dict(q) for q in FIG4_BODIES]}
        got = ServiceClient(router.url, timeout=30.0).request(
            "POST", "/batch", body)
        want = reference.request("POST", "/batch", body)
        assert got["queries"] == want["queries"] == len(FIG4_BODIES)
        for entry, got_one, want_one in zip(
                FIG4_BODIES, got["results"], want["results"]):
            _assert_same_answer(got_one, want_one, entry, reference)
            assert got_one["partial"] is False

    def test_async_health_and_metrics(self, fig4_fleet):
        router, _ = fig4_fleet
        client = ServiceClient(router.url, timeout=30.0)
        health = client.request("GET", "/healthz")
        assert health["status"] == "ok"
        assert all(len(row["replicas"]) == 1
                   for row in health["shards"])
        metrics = client.metrics()
        assert "repro_router_failover_total 0" in metrics
        assert "repro_router_replicas 2" in metrics

    def test_unknown_keyword_is_identical_400(self, fig4_fleet):
        body = {"keywords": ["nosuchkeyword"], "rmax": FIG4_RMAX}
        errors = []
        for service in fig4_fleet:
            with pytest.raises(BadRequest) as excinfo:
                ServiceClient(service.url, timeout=30.0).request(
                    "POST", "/query", body)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]


@pytest.mark.skipif(TCP_QUICKACK is None,
                    reason="TCP_QUICKACK is Linux-only")
def test_routed_query_stays_under_the_delayed_ack_floor(fig4_fleet):
    """Neither the router's answer nor its legs to the backends wait
    for a delayed ACK: a routed read costs a few ms, not ~40 ms per
    leg round."""
    router, _ = fig4_fleet
    median, statuses = delayed_ack_round_trips(
        router.port, "POST", "/query", json.dumps(FIG4_BODIES[1]))
    assert statuses == {200}
    assert median < MEDIAN_BOUND_SECONDS, f"median {median * 1e3:.1f} ms"


@pytest.mark.parametrize("value", [b"abc", b"-1"])
def test_malformed_content_length_is_a_typed_400(fig4_fleet, value):
    router, _ = fig4_fleet
    status, headers, body = malformed_length_reply(router.port, value)
    assert status.startswith("HTTP/1.1 400 ")
    assert "Connection: close" in headers
    assert json.loads(body)["status"] == 400


@pytest.mark.parametrize("front", ["service", "router"])
def test_overlong_request_head_is_a_typed_431(fig4_fleet, front):
    router, single = fig4_fleet
    server = router if front == "router" else single
    status, headers, body = raw_reply(
        server.port, b"X-Filler: " + b"a" * 70_000)
    assert status.startswith("HTTP/1.1 431 ")
    assert "Connection: close" in headers
    assert json.loads(body)["status"] == 431


@pytest.mark.parametrize("front", ["service", "router"])
def test_short_body_is_a_typed_400(fig4_fleet, front):
    """A body is read as it arrives: a huge declared size is not
    allocated, and a body that ends before it is refused."""
    router, single = fig4_fleet
    server = router if front == "router" else single
    status, headers, body = raw_exchange(
        server.port, b"POST /query HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: 99999999999999999\r\n\r\n{}",
        half_close=True)
    assert status.startswith("HTTP/1.1 400 ")
    assert "Connection: close" in headers
    assert json.loads(body)["status"] == 400


@pytest.mark.parametrize("front", ["service", "router"])
def test_malformed_request_line_is_a_typed_400(fig4_fleet, front):
    router, single = fig4_fleet
    server = router if front == "router" else single
    status, headers, body = raw_exchange(server.port,
                                         b"GARBAGE\r\n\r\n")
    assert status.startswith("HTTP/1.1 400 ")
    assert "Connection: close" in headers
    assert json.loads(body)["status"] == 400


@pytest.mark.parametrize("front", ["service", "router"])
def test_http_rejections_are_counted(fig4_fleet, front):
    router, single = fig4_fleet
    server = router if front == "router" else single
    client = ServiceClient(server.url, timeout=30.0)
    series = f'repro_requests_total{{path="{UNMATCHED}",status="400"}}'
    before = _metric(client.metrics(), series)
    for _ in range(5):
        assert raw_exchange(server.port, b"GARBAGE\r\n\r\n")[0] \
            .startswith("HTTP/1.1 400 ")
    assert _metric(client.metrics(), series) == before + 5
    client.close()


@pytest.mark.parametrize("front", ["service", "router"])
def test_stalled_body_is_a_typed_400(fig4_fleet, front, monkeypatch):
    """A body that stops arriving is answered as a short one once it
    has stalled for the body timeout; an idle keep-alive connection is
    not timed out."""
    router, single = fig4_fleet
    server = router if front == "router" else single
    monkeypatch.setattr(wire, "BODY_TIMEOUT", 0.5)
    start = time.monotonic()
    # raw_exchange holds the connection open and reads for 2 s.
    status, headers, body = raw_exchange(
        server.port, b"POST /query HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: 10\r\n\r\n{}")
    assert time.monotonic() - start < 2.0
    assert status.startswith("HTTP/1.1 400 ")
    assert "Connection: close" in headers
    assert json.loads(body)["status"] == 400
    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=10.0)
    try:
        for pause in (0.0, 1.0):
            time.sleep(pause)
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            reply.read()
            assert reply.status == 200
    finally:
        conn.close()


@pytest.mark.parametrize("front", ["service", "router"])
def test_stalled_head_is_dropped(fig4_fleet, front, monkeypatch):
    """A request head that stops arriving is answered with a typed 400
    once it has stalled for the timeout, armed at the request's first
    byte; an idle keep-alive connection is still not timed out."""
    router, single = fig4_fleet
    server = router if front == "router" else single
    monkeypatch.setattr(wire, "BODY_TIMEOUT", 0.5)
    start = time.monotonic()
    status, headers, body = raw_exchange(
        server.port, b"POST /query HTTP/1.1\r\nHost: test\r\n")
    assert time.monotonic() - start < 2.0
    assert status.startswith("HTTP/1.1 400 ")
    assert "Connection: close" in headers
    assert json.loads(body)["status"] == 400
    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=10.0)
    try:
        for pause in (0.0, 1.0):
            time.sleep(pause)
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            reply.read()
            assert reply.status == 200
    finally:
        conn.close()


@pytest.mark.parametrize("front", ["service", "router"])
def test_trickled_request_is_cut_off(fig4_fleet, front, monkeypatch):
    """A head that keeps trickling in, one byte within every read's
    timeout, is still cut off once the request is older than the
    timeout: the deadline covers the request, not each read. An idle
    keep-alive connection is still not timed out."""
    router, single = fig4_fleet
    server = router if front == "router" else single
    monkeypatch.setattr(wire, "BODY_TIMEOUT", 0.5)
    trickle = iter(b"Host: test\r\n" * 100)
    reply = b""
    start = time.monotonic()
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=0.3) as sock:
        sock.sendall(b"POST /query HTTP/1.1\r\n")
        try:
            while time.monotonic() - start < 2.0:
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:
                    sock.sendall(bytes([next(trickle)]))
                    continue
                if not chunk:
                    break
                reply += chunk
        except (BrokenPipeError, ConnectionResetError):
            pass
    assert time.monotonic() - start < 2.0
    if reply:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["status"] == 400
    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=10.0)
    try:
        for pause in (0.0, 1.0):
            time.sleep(pause)
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            reply.read()
            assert reply.status == 200
    finally:
        conn.close()


def _replies(port, request, quiet=1.0):
    """Send the raw ``request`` bytes and read until the server hangs
    up or stays quiet for ``quiet`` seconds. Returns the status line
    of every response, in order, and whether the server hung up."""
    data = b""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=quiet) as sock:
        sock.sendall(request)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return _status_lines(data), True
                data += chunk
        except socket.timeout:
            return _status_lines(data), False
        except ConnectionResetError:
            return _status_lines(data), True


def _status_lines(data):
    """The status line of each response in ``data``, in order."""
    statuses = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status, *headers = head.decode("latin-1").split("\r\n")
        statuses.append(status)
        data = data[sum(int(line.partition(":")[2]) for line in headers
                        if line.lower().startswith("content-length:")):]
    return statuses


def _query_request(*headers):
    """A fig4 ``POST /query`` carrying ``headers`` and its JSON body;
    ``{n}`` in a header stands for the body's length."""
    body = json.dumps(FIG4_BODIES[1]).encode("utf-8")
    head = b"".join(line.replace(b"{n}", str(len(body)).encode()) + b"\r\n"
                    for line in headers)
    return b"POST /query HTTP/1.1\r\nHost: t\r\n" + head + b"\r\n" + body


@pytest.mark.parametrize("front", ["service", "router"])
def test_transfer_encoding_is_refused(fig4_fleet, front):
    """A chunked request is a 501 and a close: its body, a request of
    its own, is never answered."""
    router, single = fig4_fleet
    server = router if front == "router" else single
    statuses, closed = _replies(
        server.port, b"POST /query HTTP/1.1\r\nHost: t\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
    assert statuses == ["HTTP/1.1 501 Not Implemented"]
    assert closed


@pytest.mark.parametrize("front", ["service", "router"])
def test_conflicting_content_length_is_a_typed_400(fig4_fleet, front):
    """Two different ``Content-Length`` values frame the body two ways:
    a 400 and a close. Repeats of one value are that value."""
    router, single = fig4_fleet
    server = router if front == "router" else single
    status, headers, body = raw_exchange(server.port, _query_request(
        b"Content-Length: {n}", b"Content-Length: 2"))
    assert status.startswith("HTTP/1.1 400 ")
    assert "Connection: close" in headers
    assert json.loads(body)["status"] == 400
    assert _replies(server.port, _query_request(
        b"Content-Length: {n}", b"Content-Length: {n}")) \
        == (["HTTP/1.1 200 OK"], False)


@pytest.mark.parametrize("front", ["service", "router"])
def test_bare_lf_head_is_read_like_crlf(fig4_fleet, front):
    router, single = fig4_fleet
    server = router if front == "router" else single
    for end in (b"\r\n", b"\n"):
        assert _replies(server.port, end.join(
            [b"GET /healthz HTTP/1.1", b"Host: t", b"", b""])) \
            == (["HTTP/1.1 200 OK"], False)


@pytest.mark.parametrize("front", ["service", "router"])
def test_http10_is_closed_unless_kept_alive(fig4_fleet, front):
    router, single = fig4_fleet
    server = router if front == "router" else single
    request = b"GET /healthz HTTP/1.0\r\nHost: t\r\n"
    assert _replies(server.port, request + b"\r\n") \
        == (["HTTP/1.1 200 OK"], True)
    assert _replies(server.port,
                    request + b"Connection: keep-alive\r\n\r\n") \
        == (["HTTP/1.1 200 OK"], False)


@pytest.mark.parametrize("front", ["service", "router"])
def test_unknown_method_is_the_route_tables_404(fig4_fleet, front):
    """``PATCH`` is refused like an unknown path: a 404 counted under
    ``{unmatched}``, and the connection stays open."""
    router, single = fig4_fleet
    server = router if front == "router" else single
    client = ServiceClient(server.url, timeout=30.0)
    series = f'repro_requests_total{{path="{UNMATCHED}",status="404"}}'
    before = _metric(client.metrics(), series)
    assert _replies(server.port, b"PATCH /query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 2\r\n\r\n{}") \
        == (["HTTP/1.1 404 Not Found"], False)
    assert _metric(client.metrics(), series) == before + 1
    client.close()


@pytest.mark.parametrize("front", ["service", "router"])
def test_expect_continue_is_answered_before_the_body(fig4_fleet, front):
    router, single = fig4_fleet
    server = router if front == "router" else single
    head, _, body = _query_request(
        b"Content-Length: {n}", b"Expect: 100-continue") \
        .partition(b"\r\n\r\n")
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=2.0) as sock:
        sock.sendall(head + b"\r\n\r\n")
        assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        with sock.makefile("rb") as replies:
            assert replies.readline() == b"HTTP/1.1 200 OK\r\n"


def _path_labels(metrics):
    """The ``path`` labels of the request counter and histogram."""
    return set(re.findall(
        r'^repro_request(?:s_total|_seconds\w*)\{path="([^"]*)"',
        metrics, re.M))


@pytest.mark.parametrize("front", ["service", "router"])
def test_unknown_paths_add_one_path_label(fig4_fleet, front):
    router, single = fig4_fleet
    client = ServiceClient((router if front == "router" else single).url,
                           timeout=30.0)
    client.metrics()                  # its own label is not counted
    before = _path_labels(client.metrics())
    unknown = [f"/scan{i}" for i in range(100)] \
        + [f"/scan{i}/a" for i in range(100)] + ["/query{x}"]
    for path in unknown:
        with pytest.raises(NotFound):
            client.request("GET" if len(path) % 2 else "POST", path)
    after = _path_labels(client.metrics())
    assert after - before <= {UNMATCHED}
    assert UNMATCHED in after


def test_failed_templated_request_keeps_its_template(fig4_fleet):
    _, single = fig4_fleet
    client = ServiceClient(single.url, timeout=30.0)
    with pytest.raises(NotFound):
        client.request("POST", "/sessions/nope/next", {"k": 1})
    assert 'repro_requests_total{path="/sessions/{id}/next",' \
        'status="404"}' in client.metrics()


#: Query fields both front ends refuse with a 400 before any engine
#: or shard leg runs.
MALFORMED_FIELDS = {
    "unknown-algorithm": {"algorithm": "nope"},
    "unknown-aggregate": {"aggregate": "bogus"},
    "list-aggregate": {"aggregate": []},
    "nan-rmax": {"rmax": float("nan")},
}


@pytest.mark.parametrize("route", ["/query", "/batch"])
@pytest.mark.parametrize("field", sorted(MALFORMED_FIELDS))
@pytest.mark.parametrize("front", ["service", "router"])
def test_malformed_field_is_a_400_on_both_front_ends(fig4_fleet, front,
                                                     field, route):
    router, single = fig4_fleet
    query = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 3,
             **MALFORMED_FIELDS[field]}
    body = json.dumps(query if route == "/query"
                      else {"queries": [query]}).encode("utf-8")
    if front == "service":
        status = single.handle("POST", route, body)[0]
    else:
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(router.url, timeout=30.0).request_raw(
                "POST", route, body, "application/json")
        status = excinfo.value.status
    assert status == 400


def _refusal(service, route, body):
    """The status and message ``service`` refuses ``body`` with."""
    with pytest.raises(ServiceError) as excinfo:
        ServiceClient(service.url, timeout=30.0).request_raw(
            "POST", route, json.dumps(body).encode("utf-8"),
            "application/json")
    return excinfo.value.status, str(excinfo.value)


#: Queries that only the index can refuse: the router holds no index,
#: so every shard refuses them as the single box does.
REFUSED_QUERIES = {
    "rmax-above-index-radius": {"keywords": list(FIG4_QUERY),
                                "rmax": FIG4_INDEX_RADIUS + 1,
                                "k": 3},
    "unknown-keyword": {"keywords": ["nosuchkeyword"],
                        "rmax": FIG4_RMAX},
}


@pytest.mark.parametrize("route", ["/query", "/batch"])
@pytest.mark.parametrize("case", sorted(REFUSED_QUERIES))
def test_a_shards_refusal_is_the_routers(fig4_fleet, case, route):
    """The router answers the single box's status and error text; a
    refused ``/batch`` entry refuses the whole batch on both."""
    router, single = fig4_fleet
    query = REFUSED_QUERIES[case]
    body = query if route == "/query" \
        else {"queries": [dict(FIG4_BODIES[1]), query]}
    want = _refusal(single, route, body)
    assert want[0] == 400
    assert _refusal(router, route, body) == want


@pytest.mark.parametrize("route", ["/query", "/batch"])
@pytest.mark.parametrize("algorithm", ["bu", "td"])
def test_budget_reaches_every_leg(fig4_fleet, algorithm, route):
    """A routed BU/TD COMM-all under a ``budget_seconds`` too small to
    finish answers what the single box's budget censors it to."""
    router, single = fig4_fleet
    query = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
             "mode": "all", "algorithm": algorithm,
             "budget_seconds": 1e-9}
    body = query if route == "/query" else {"queries": [query]}
    replies = [ServiceClient(service.url, timeout=30.0).request(
        "POST", route, body) for service in (router, single)]
    if route == "/batch":
        replies = [reply["results"][0] for reply in replies]
    routed, want = replies
    assert routed["partial"] is False
    assert routed["count"] == want["count"]
    assert _norm(routed) == _norm(want)


class TestPropertyGraphIdentity:
    """The acceptance bar: identity holds beyond the paper example."""

    @pytest.mark.parametrize("seed,shards", [(7, 2), (23, 3)])
    def test_random_graph_responses_identical(self, tmp_path, seed,
                                              shards):
        dbg = random_database_graph(14, 0.25, ["a", "b", "c"],
                                    seed=seed, bidirected=False)
        manifest = _partition(tmp_path, dbg, 4.0, "parts",
                              shards=shards)
        backends, urls = _start_backends(manifest, tmp_path / "parts")
        router = AsyncRouterService(manifest, urls,
                                    root=tmp_path / "parts").start()
        single = _single_box(tmp_path)
        try:
            routed = ServiceClient(router.url, timeout=30.0)
            reference = ServiceClient(single.url, timeout=30.0)
            for body in (
                    {"keywords": ["a"], "rmax": 4.0, "k": 2},
                    {"keywords": ["a", "b"], "rmax": 4.0, "k": 5},
                    {"keywords": ["a", "b"], "rmax": 2.0,
                     "mode": "all"},
                    {"keywords": ["b", "c"], "rmax": 4.0,
                     "mode": "all"}):
                try:
                    want = reference.request("POST", "/query", body)
                except ServiceError as error:
                    with pytest.raises(type(error)):
                        routed.request("POST", "/query", body)
                    continue
                _assert_same_answer(
                    routed.request("POST", "/query", body), want,
                    body, reference)
        finally:
            _stop(router, single, *[s for g in backends for s in g])


def _metric(text, series):
    """The value of one exact Prometheus ``series`` (0 if absent)."""
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.split()[1])
    return 0.0


class TestSplitEnumeration:
    """Each shard enumerates only the communities it owns."""

    def test_shards_split_the_work_and_merge_in_one_round(
            self, tmp_path, tiny_dblp):
        _, dbg = tiny_dblp
        manifest = _partition(tmp_path, dbg, 8.0, "parts")
        backends, urls = _start_backends(manifest, tmp_path / "parts")
        router = AsyncRouterService(manifest, urls,
                                    root=tmp_path / "parts").start()
        single = _single_box(tmp_path)
        try:
            routed = ServiceClient(router.url, timeout=30.0)
            reference = ServiceClient(single.url, timeout=30.0)
            every = {"keywords": ["data", "model"], "rmax": 4.0,
                     "mode": "all"}
            want = reference.request("POST", "/query", every)
            _assert_same_answer(routed.request("POST", "/query", every),
                                want, every, reference)
            enumerated = [_metric(
                ServiceClient(service.url).metrics(),
                'repro_query_events_total{event="communities"}')
                for group in backends for service in group]
            # Cold backends: every community counted was enumerated
            # for this one routed query, by exactly one shard.
            assert want["count"] > 1
            assert sum(enumerated) == want["count"]
            assert all(0 < count < want["count"]
                       for count in enumerated)
            before = routed.metrics()
            bodies = [{"keywords": ["data", "model"], "rmax": 4.0,
                       "k": k} for k in (1, 5, 50)]
            for body in bodies:
                _assert_same_answer(
                    routed.request("POST", "/query", body),
                    reference.request("POST", "/query", body), body,
                    reference)
            after = routed.metrics()
            for series, per_query in (
                    ("repro_router_merge_rounds_total", 1),
                    ("repro_router_fanout_legs_total", 2)):
                assert _metric(after, series) - _metric(before, series) \
                    == per_query * len(bodies), series
        finally:
            _stop(router, single, *[s for g in backends for s in g])


class TestReplicaFailover:
    def test_killed_primary_fails_over_exactly_once(self, tmp_path):
        manifest = _partition(tmp_path, figure4_graph(), 10.0,
                              "parts")
        backends, urls = _start_backends(manifest, tmp_path / "parts",
                                         replicas=2)
        router = AsyncRouterService(
            manifest, urls, root=tmp_path / "parts",
            shard_timeout=5.0, shard_retries=0).start()
        try:
            client = ServiceClient(router.url, timeout=30.0)
            body = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
                    "mode": "all"}
            before = _clean(client.request("POST", "/query", body))
            assert before["partial"] is False

            backends[0][0].shutdown()      # shard 0's primary dies

            after = _clean(client.request("POST", "/query", body))
            assert after == before         # exact, not partial
            metrics = client.metrics()
            assert "repro_router_failover_total 1" in metrics

            # Sticky promotion: the next call starts on the sibling,
            # no second failover.
            again = _clean(client.request("POST", "/query", body))
            assert again == before
            assert "repro_router_failover_total 1" \
                in client.metrics()

            # The fleet still rolls up ok: surviving on a sibling is
            # the designed posture, not an outage.
            health = client.request("GET", "/healthz")
            assert health["status"] == "ok"
        finally:
            _stop(router, *[s for g in backends for s in g])


@pytest.fixture()
def reload_fleet_env(tmp_path):
    """A two-generation fleet behind the router.

    Generation 1 (index radius 10) is serving; generation 2 (radius
    4) is partitioned and ready to roll out from ``parts2``.
    """
    dbg = figure4_graph()
    manifest1 = _partition(tmp_path, dbg, 10.0, "parts1")
    manifest2 = _partition(tmp_path, dbg, 4.0, "parts2")
    assert manifest2.generation != manifest1.generation
    backends, urls = _start_backends(manifest1, tmp_path / "parts1")
    router = AsyncRouterService(manifest1, urls,
                                root=tmp_path / "parts1").start()
    reference = _single_box(tmp_path)   # the store's latest = gen 2
    yield router, manifest2, tmp_path / "parts2", reference
    faults.clear()
    _stop(router, reference, *[s for g in backends for s in g])


QUERY_ALL = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
             "mode": "all"}

#: Generation 2 is indexed at radius 4, so post-roll-out queries must
#: stay within it; the origin generation answers this too, but with a
#: different (radius-10-index) artifact behind it.
QUERY_NEW = {"keywords": list(FIG4_QUERY), "rmax": 4.0,
             "mode": "all"}


class TestConcurrentReload:
    def test_inflight_queries_complete_on_origin_generation(
            self, reload_fleet_env):
        router, manifest2, parts2, reference = reload_fleet_env
        client = ServiceClient(router.url, timeout=30.0)
        before = _clean(client.request("POST", "/query", QUERY_ALL))

        # Every backend reload stalls 1s, holding the fleet mid-roll
        # long enough to query through it deterministically.
        faults.activate("service.reload", "always:sleep(1.0)")
        outcome = {}
        try:
            def roll():
                outcome.update(client.request(
                    "POST", "/admin/reload", {"path": str(parts2)}))
            roller = threading.Thread(target=roll)
            roller.start()
            time.sleep(0.25)
            mid = _clean(ServiceClient(router.url, timeout=30.0)
                         .request("POST", "/query", QUERY_ALL))
            roller.join(timeout=30.0)
            assert not roller.is_alive()
        finally:
            faults.clear()
        # The in-flight query answered on the origin generation,
        # exactly and non-partially.
        assert mid == before
        assert mid["partial"] is False
        assert outcome["reloaded"] is True
        assert outcome["generation"] == manifest2.generation

        # The rolled-out fleet answers the new generation exactly
        # (the origin rmax now exceeds the new index radius — the
        # mid-roll answer above could only have come from gen 1).
        after = client.request("POST", "/query", QUERY_NEW)
        want = ServiceClient(reference.url, timeout=30.0).request(
            "POST", "/query", QUERY_NEW)
        assert _norm(after) == _norm(want)
        health = client.request("GET", "/healthz")
        assert health["generation"] == manifest2.generation
        assert health["status"] == "ok"

    def test_failed_reload_rolls_back_around_inflight_query(
            self, reload_fleet_env):
        router, manifest2, parts2, _ = reload_fleet_env
        client = ServiceClient(router.url, timeout=30.0)
        before = _clean(client.request("POST", "/query", QUERY_ALL))
        old_generation = client.request("GET",
                                        "/healthz")["generation"]

        # The first backend's reload dies before anything swaps.
        faults.activate("service.reload", "nth(1):raise")
        inflight = {}
        try:
            def ask():
                inflight.update(ServiceClient(
                    router.url, timeout=30.0).request(
                        "POST", "/query", QUERY_ALL))
            asker = threading.Thread(target=ask)
            asker.start()
            with pytest.raises(ServiceError, match="rolled back"):
                client.request("POST", "/admin/reload",
                               {"path": str(parts2)})
            asker.join(timeout=30.0)
            assert not asker.is_alive()
        finally:
            faults.clear()
        # The concurrent query survived the failed roll-out with the
        # exact origin answer.
        assert _clean(inflight) == before
        assert inflight["partial"] is False

        # Nothing moved: same generation, same answers, and the
        # rollback is visible in the metrics.
        health = client.request("GET", "/healthz")
        assert health["generation"] == old_generation
        assert health["status"] == "ok"
        assert _clean(client.request("POST", "/query", QUERY_ALL)) \
            == before
        assert "repro_router_reload_rollbacks_total 1" \
            in client.metrics()

        # The fault was once-only: the retry rolls the fleet forward.
        retried = client.request("POST", "/admin/reload",
                                 {"path": str(parts2)})
        assert retried["reloaded"] is True
        assert retried["generation"] == manifest2.generation


@pytest.fixture()
def crossbox_fleet(tmp_path):
    """Backends whose only snapshot source is their OWN empty store —
    the no-shared-filesystem deployment."""
    dbg = figure4_graph()
    manifest1 = _partition(tmp_path, dbg, 10.0, "parts1")
    manifest2 = _partition(tmp_path, dbg, 4.0, "parts2")
    stores = {(entry.shard_id, 0): tmp_path / f"box-{entry.shard_id}"
              for entry in manifest1.shards}
    backends, urls = _start_backends(manifest1, tmp_path / "parts1",
                                     stores=stores)
    router = AsyncRouterService(manifest1, urls,
                                root=tmp_path / "parts1").start()
    yield router, manifest2, tmp_path / "parts2"
    faults.clear()
    _stop(router, *[s for g in backends for s in g])


class TestCrossBoxTransferReload:
    def test_transfer_reload_needs_no_shared_filesystem(
            self, crossbox_fleet):
        router, manifest2, parts2 = crossbox_fleet
        client = ServiceClient(router.url, timeout=30.0)
        outcome = client.request(
            "POST", "/admin/reload",
            {"path": str(parts2), "transfer": True})
        assert outcome["reloaded"] is True
        assert outcome["transfer"] is True
        assert outcome["generation"] == manifest2.generation
        # Every backend now serves its pushed shard snapshot.
        health = client.request("GET", "/healthz")
        assert health["status"] == "ok"
        for row, entry in zip(health["shards"], manifest2.shards):
            assert row["snapshot"] == entry.snapshot_id
        result = client.request("POST", "/query", QUERY_NEW)
        assert result["partial"] is False and result["count"] >= 1

    def test_corrupted_transfer_rolls_the_fleet_back(
            self, crossbox_fleet):
        router, manifest2, parts2 = crossbox_fleet
        client = ServiceClient(router.url, timeout=30.0)
        before = _clean(client.request("POST", "/query", QUERY_ALL))
        old_generation = client.request("GET",
                                        "/healthz")["generation"]

        # Each shard pushes each section once, shard 0 first — the
        # second evaluation of this per-section failpoint corrupts
        # shard 1's copy in flight, after shard 0 already switched.
        entry = manifest2.shards[0]
        shard_manifest = read_manifest(
            parts2 / entry.store / entry.snapshot_id)
        section = sorted(shard_manifest["sections"])[0]
        faults.activate(f"snapshot.transfer.{section}",
                        "nth(2):corrupt")
        try:
            with pytest.raises(ServiceError, match="rolled back"):
                client.request(
                    "POST", "/admin/reload",
                    {"path": str(parts2), "transfer": True})
        finally:
            faults.clear()

        # Shard 0 was rolled back; the fleet still serves the origin
        # generation exactly.
        health = client.request("GET", "/healthz")
        assert health["generation"] == old_generation
        assert health["status"] == "ok"
        assert _clean(client.request("POST", "/query", QUERY_ALL)) \
            == before
        assert "repro_router_reload_rollbacks_total 1" \
            in client.metrics()

        # With the wire healthy again the same roll-out succeeds.
        retried = client.request(
            "POST", "/admin/reload",
            {"path": str(parts2), "transfer": True})
        assert retried["reloaded"] is True
        assert retried["generation"] == manifest2.generation
