"""Scatter-gather serving benchmark: router QPS at shards=1 vs 2.

A bench-scale DBLP snapshot is partitioned into one- and two-shard
fleets; each fleet runs real :class:`CommunityService` backends on
ephemeral ports behind a started :class:`AsyncRouterService`.
Closed-loop clients drive a mixed top-k workload through the router's
HTTP stack and record per-request latencies, so each cell reports
sustained queries/second plus p50/p95 milliseconds over
:data:`ROUNDS` measured rounds.

The shards=1 cell is the routing-overhead baseline (one fan-out leg,
a trivial merge); shards=2 shows what the scatter-gather tier costs
and buys on the same workload. Both cells land in
``bench_results.json`` and sit under the 25 % regression gate of
``tools/bench_compare.py`` like every other serving benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ -k shard``.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.engine.engine import QueryEngine
from repro.service import CommunityService, ServiceClient
from repro.shard import partition_snapshot
from repro.shard.aio import AsyncRouterService
from repro.snapshot import SnapshotStore

#: Closed-loop client threads per measured round.
CLIENTS = 4

#: Requests per client per measured round.
REQUESTS_PER_CLIENT = 6

#: Measured rounds per cell: the regression gate compares medians,
#: which need at least five samples to mean anything.
ROUNDS = 5


@pytest.fixture(scope="module")
def dblp_snapshot(tmp_path_factory, dblp):
    """The bench DBLP bundle published as an immutable snapshot."""
    root = tmp_path_factory.mktemp("shard-bench-store")
    SnapshotStore(root).publish(
        dblp.dbg, dblp.search.engine.index,
        provenance={"dataset": dblp.label, "purpose": "shard-bench"})
    return root


@pytest.fixture(scope="module", params=(1, 2),
                ids=("shards_1", "shards_2"))
def fleet(request, tmp_path_factory, dblp_snapshot):
    """A started router + shard fleet at the parametrized width."""
    shards = request.param
    tmp = tmp_path_factory.mktemp(f"shard-bench-{shards}")
    manifest, _ = partition_snapshot(dblp_snapshot, tmp, shards)
    backends = []
    for entry in manifest.shards:
        engine = QueryEngine.from_snapshot(
            tmp / entry.store / entry.snapshot_id)
        backends.append(
            CommunityService(engine, port=0, workers=2).start())
    router = AsyncRouterService(manifest,
                                [b.url for b in backends],
                                root=tmp).start()
    yield shards, router
    router.shutdown()
    for backend in backends:
        backend.shutdown()


def _workload(params):
    """A mixed top-k request list spanning the paper's sweep axes."""
    cells = [(params.query(), params.default_rmax)]
    cells += [(params.query(l=l), params.default_rmax)
              for l in params.l_values[:2]]
    cells += [(params.query(), rmax) for rmax in params.rmax_values[:2]]
    return [{"keywords": keywords, "rmax": rmax, "k": 5}
            for keywords, rmax in cells]


def _closed_loop(url, requests, clients, requests_each):
    """``clients`` closed-loop workers; returns (latencies, seconds)."""
    latencies = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def worker(worker_id):
        client = ServiceClient(url, timeout=60.0)
        barrier.wait()
        for i in range(requests_each):
            body = requests[(worker_id + i) % len(requests)]
            start = time.perf_counter()
            response = client.request("POST", "/query", body)
            elapsed = time.perf_counter() - start
            assert response["count"] >= 0
            with lock:
                latencies.append(elapsed)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    return latencies, time.perf_counter() - start


def test_router_throughput(benchmark, dblp, fleet):
    """Sustained routed QPS and latency percentiles at this width."""
    shards, router = fleet
    requests = _workload(dblp.params)

    # Warm every backend's projection cache once per cell, so the
    # measured rounds compare serving paths rather than cold starts.
    warm = ServiceClient(router.url, timeout=60.0)
    for body in requests:
        warm.request("POST", "/query", body)

    rounds = []

    def round_trip():
        latencies, elapsed = _closed_loop(
            router.url, requests, CLIENTS, REQUESTS_PER_CLIENT)
        rounds.append((latencies, len(latencies) / elapsed))

    benchmark.pedantic(round_trip, rounds=ROUNDS, iterations=1)
    latencies = sorted(lat for sample, _ in rounds for lat in sample)
    qps = statistics.median(rate for _, rate in rounds)
    benchmark.extra_info.update({
        "shards": shards,
        "clients": CLIENTS,
        "requests": len(latencies),
        "qps": round(qps, 2),
        "p50_ms": round(
            latencies[len(latencies) // 2] * 1e3, 2),
        "p95_ms": round(
            latencies[int(len(latencies) * 0.95) - 1] * 1e3, 2),
    })
