"""Router semantics against a real two-shard fig4 fleet.

The shard backends are genuine :class:`CommunityService` servers on
ephemeral ports (the router speaks HTTP to them through its
keep-alive shard clients); the router itself is driven through
:meth:`AsyncRouterService.handle_async`, submitted to its own event
loop — no client socket to the router needed.
"""

import asyncio
import json

import pytest

from repro.cli import main
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX, \
    figure4_graph
from repro.engine.engine import QueryEngine
from repro.exceptions import ServiceError
from repro.service import CommunityService
from repro.shard import partition_snapshot
from repro.shard.aio import AsyncRouterService
from repro.snapshot.store import SnapshotStore
from repro.text.inverted_index import CommunityIndex


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """(router, single-box service, manifest) over partitioned fig4."""
    tmp = tmp_path_factory.mktemp("fleet")
    dbg = figure4_graph()
    store = SnapshotStore(tmp / "store")
    snapshot = store.publish(dbg, CommunityIndex.build(dbg, 10.0),
                             provenance={"dataset": "fig4"})
    manifest, _ = partition_snapshot(tmp / "store", tmp / "parts", 2)
    shards = []
    urls = []
    for entry in manifest.shards:
        engine = QueryEngine.from_snapshot(
            tmp / "parts" / entry.store / entry.snapshot_id)
        service = CommunityService(engine, port=0).start()
        shards.append(service)
        urls.append(service.url)
    router = AsyncRouterService(manifest, urls,
                                root=tmp / "parts").start()
    reference = CommunityService(
        QueryEngine.from_snapshot(snapshot.path), port=0)
    yield router, reference, manifest
    router.shutdown()
    reference.shutdown()
    for service in shards:
        service.shutdown()


def _handle(service, method, path, body=b""):
    """One request through ``service``; the router's runs on its own
    event loop, the single-box reference's on the calling thread."""
    if isinstance(service, AsyncRouterService):
        return asyncio.run_coroutine_threadsafe(
            service.handle_async(method, path, body),
            service._loop).result(timeout=60)
    return service.handle(method, path, body)


def _post(service, path, payload):
    status, _, body, _ = _handle(service, "POST", path,
                                 json.dumps(payload).encode())
    return status, json.loads(body)


def _norm(response):
    return sorted((tuple(c["core"]), round(c["cost"], 9))
                  for c in response["communities"])


def test_router_rejects_mismatched_urls(fleet):
    _, _, manifest = fleet
    with pytest.raises(ServiceError):
        AsyncRouterService(manifest, ["http://127.0.0.1:1"])


def test_serve_router_still_parses_async_flag(fleet, capsys):
    """``--async`` once chose the front end; launch scripts still pass
    it, so it parses as a hidden no-op."""
    router, _, _ = fleet
    # One URL for two shards: the command parses, then stops at the
    # arity check before binding anything.
    assert main(["serve-router", "--manifest", str(router.core.root),
                 "--shard-url", "http://127.0.0.1:1", "--async"]) == 2
    assert "names 2 shards but 1" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["serve-router", "--help"])
    assert "--async" not in capsys.readouterr().out


def test_query_all_matches_single_box(fleet):
    router, reference, _ = fleet
    body = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
            "mode": "all"}
    status, routed = _post(router, "/query", body)
    ref_status, single = _post(reference, "/query", body)
    assert status == ref_status == 200
    assert routed["count"] == single["count"]
    assert _norm(routed) == _norm(single)
    assert routed["shards_answered"] == routed["shards_total"] == 2
    assert routed["partial"] is False
    # The router's PDall contract: canonical (cost, core) order.
    keys = [(c["cost"], tuple(c["core"]))
            for c in routed["communities"]]
    assert keys == sorted(keys)


def test_query_top_k_matches_single_box(fleet):
    router, reference, _ = fleet
    for k in (1, 3, 5, 50):
        body = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
                "k": k}
        _, routed = _post(router, "/query", body)
        _, single = _post(reference, "/query", body)
        assert [round(c["cost"], 9) for c in routed["communities"]] \
            == [round(c["cost"], 9) for c in single["communities"]]
        assert _norm(routed) == _norm(single)


def test_query_labels_are_global(fleet):
    router, _, _ = fleet
    dbg = figure4_graph()
    _, routed = _post(router, "/query",
                      {"keywords": list(FIG4_QUERY),
                       "rmax": FIG4_RMAX, "k": 2, "labels": True})
    for community in routed["communities"]:
        for node, label in community["labels"].items():
            assert dbg.label_of(int(node)) == label


def test_unknown_keyword_is_definitive_400(fleet):
    router, _, _ = fleet
    status, body = _post(router, "/query",
                         {"keywords": ["nosuchkeyword"], "rmax": 4.0})
    assert status == 400
    assert "does not occur" in body["error"]


def test_batch_matches_single_box(fleet):
    router, reference, _ = fleet
    body = {"queries": [
        {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 3},
        {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
         "mode": "all"},
    ]}
    status, routed = _post(router, "/batch", body)
    _, single = _post(reference, "/batch", body)
    assert status == 200
    assert routed["queries"] == 2
    topk_r, all_r = routed["results"]
    topk_s, all_s = single["results"]
    assert [round(c["cost"], 9) for c in topk_r["communities"]] \
        == [round(c["cost"], 9) for c in topk_s["communities"]]
    assert _norm(all_r) == _norm(all_s)
    for entry in routed["results"]:
        assert entry["shards_answered"] == entry["shards_total"]
        assert entry["partial"] is False


def test_batch_validation(fleet):
    router, _, _ = fleet
    status, _ = _post(router, "/batch", {"queries": []})
    assert status == 400
    status, _ = _post(router, "/batch", {"queries": ["nope"]})
    assert status == 400


def test_healthz_aggregates_fleet(fleet):
    router, _, manifest = fleet
    status, _, body, _ = _handle(router, "GET", "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["generation"] == manifest.generation
    assert health["shards_reachable"] == 2
    for row in health["shards"]:
        assert row["snapshot"] == row["expected_snapshot"]


def test_metrics_exposes_router_series(fleet):
    router, _, _ = fleet
    _post(router, "/query",
          {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": 2})
    status, _, body, content_type = _handle(router, "GET",
                                            "/metrics")
    assert status == 200
    assert content_type.startswith("text/plain")
    for series in ("repro_router_queries_total",
                   "repro_router_fanout_legs_total",
                   "repro_router_merge_rounds_total",
                   "repro_router_shards 2",
                   "repro_router_shard_info",
                   "repro_router_manifest_info"):
        assert series in body, series
    assert 'path="shard:00"' in body


def test_reload_same_generation_is_noop(fleet):
    router, _, manifest = fleet
    status, body = _post(router, "/admin/reload", {})
    assert status == 200
    assert body["reloaded"] is False
    assert body["generation"] == manifest.generation


def test_reload_shard_count_mismatch_is_400(fleet, tmp_path):
    router, _, _ = fleet
    dbg = figure4_graph()
    store = SnapshotStore(tmp_path / "store")
    store.publish(dbg, CommunityIndex.build(dbg, 10.0))
    partition_snapshot(tmp_path / "store", tmp_path / "parts3", 3)
    status, body = _post(router, "/admin/reload",
                         {"path": str(tmp_path / "parts3")})
    assert status == 400
    assert "3" in body["error"]


def test_unknown_route_404(fleet):
    router, _, _ = fleet
    status, _, _, _ = _handle(router, "GET", "/nope")
    assert status == 404
