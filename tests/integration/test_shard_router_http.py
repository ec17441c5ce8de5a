"""Socket-level integration tests for the sharded serving tier.

A fig4 snapshot is partitioned into two shard snapshots; each shard
runs a genuine :class:`CommunityService` on an ephemeral port, and a
started :class:`AsyncRouterService` fans out to them over real HTTP.
Covers the acceptance properties: routed answers identical to a
single-snapshot service, and a dead shard degrading to a 200 partial
response (``shards_answered``/``shards_total``) instead of a 503.
"""

import pytest

from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX, \
    figure4_graph
from repro.engine.engine import QueryEngine
from repro.service import CommunityService, ServiceClient
from repro.shard import partition_snapshot
from repro.shard.aio import AsyncRouterService
from repro.snapshot.store import SnapshotStore
from repro.text.inverted_index import CommunityIndex

FIG4_TOTAL = 5


def _build_fleet(tmp, shard_timeout=10.0, retries=2):
    """Partition fig4 and start (router, shard services, reference)."""
    dbg = figure4_graph()
    store = SnapshotStore(tmp / "store")
    snapshot = store.publish(dbg, CommunityIndex.build(dbg, 10.0),
                             provenance={"dataset": "fig4"})
    manifest, _ = partition_snapshot(tmp / "store", tmp / "parts", 2)
    shards = []
    for entry in manifest.shards:
        engine = QueryEngine.from_snapshot(
            tmp / "parts" / entry.store / entry.snapshot_id)
        shards.append(CommunityService(engine, port=0).start())
    router = AsyncRouterService(
        manifest, [s.url for s in shards], root=tmp / "parts",
        shard_timeout=shard_timeout, shard_retries=retries).start()
    reference = CommunityService(
        QueryEngine.from_snapshot(snapshot.path), port=0).start()
    return router, shards, reference


def _norm(response):
    return sorted((tuple(c["core"]), round(c["cost"], 9))
                  for c in response["communities"])


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("router_http")
    router, shards, reference = _build_fleet(tmp)
    yield router, shards, reference
    router.shutdown()
    reference.shutdown()
    for service in shards:
        service.shutdown()


class TestRoutedAnswersOverHttp:
    def test_query_matches_single_snapshot(self, fleet):
        router, _, reference = fleet
        via_router = ServiceClient(router.url, timeout=30.0)
        single = ServiceClient(reference.url, timeout=30.0)
        for extra in ({"mode": "all"}, {"k": 1}, {"k": 3}, {"k": 50}):
            body = {"keywords": list(FIG4_QUERY),
                    "rmax": FIG4_RMAX, **extra}
            routed = via_router.request("POST", "/query", body)
            ref = single.request("POST", "/query", body)
            assert routed["count"] == ref["count"]
            assert _norm(routed) == _norm(ref)
            if "k" in extra:
                assert [round(c["cost"], 9)
                        for c in routed["communities"]] \
                    == [round(c["cost"], 9)
                        for c in ref["communities"]]
            assert routed["shards_answered"] \
                == routed["shards_total"] == 2
            assert routed["partial"] is False

    def test_batch_matches_single_snapshot(self, fleet):
        router, _, reference = fleet
        body = {"queries": [
            {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 2},
            {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
             "mode": "all"},
        ]}
        routed = ServiceClient(router.url, timeout=30.0).request(
            "POST", "/batch", body)
        ref = ServiceClient(reference.url, timeout=30.0).request(
            "POST", "/batch", body)
        assert routed["queries"] == ref["queries"] == 2
        for got, want in zip(routed["results"], ref["results"]):
            assert _norm(got) == _norm(want)

    def test_healthz_and_metrics_over_http(self, fleet):
        router, _, _ = fleet
        client = ServiceClient(router.url, timeout=30.0)
        health = client.request("GET", "/healthz")
        assert health["status"] == "ok"
        assert health["shards_reachable"] == 2
        metrics = client.metrics()
        assert "repro_router_queries_total" in metrics
        assert "repro_router_shards 2" in metrics


class TestDegradedFleet:
    def test_dead_shard_yields_200_partial(self, tmp_path):
        """The acceptance scenario: one backend down -> the router
        still answers 200 with the surviving shard's communities and
        reports the gap instead of failing the whole query."""
        router, shards, reference = _build_fleet(
            tmp_path, shard_timeout=2.0, retries=0)
        try:
            client = ServiceClient(router.url, timeout=30.0)
            shards[1].shutdown()

            body = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
                    "mode": "all"}
            routed = client.request("POST", "/query", body)
            assert routed["partial"] is True
            assert routed["shards_answered"] == 1
            assert routed["shards_total"] == 2
            # The surviving shard's answers are a strict subset of
            # the full result set.
            full = ServiceClient(reference.url, timeout=30.0).request(
                "POST", "/query", body)
            assert 0 < routed["count"] < full["count"] + 1
            assert set(_norm(routed)) <= set(_norm(full))

            health = client.request("GET", "/healthz")
            assert health["status"] == "degraded"
            assert health["shards_reachable"] == 1
            down = [row for row in health["shards"]
                    if row["status"] != "ok"]
            assert len(down) == 1 and "error" in down[0]

            metrics = client.metrics()
            assert "repro_router_partial_results_total" in metrics
            assert "repro_router_shard_failures_total" in metrics
        finally:
            router.shutdown()
            reference.shutdown()
            shards[0].shutdown()
