"""Router semantics against a real two-shard fig4 fleet.

The shard backends are genuine :class:`CommunityService` servers on
ephemeral ports (the router speaks HTTP to them through its
keep-alive shard clients); the router itself is driven through
:meth:`AsyncRouterService.handle_async`, submitted to its own event
loop — no client socket to the router needed. Top-k answers are
compared under the k-boundary tie rule of DESIGN.md §10.
"""

import asyncio
import json

import pytest

from repro.cli import main
from repro.core.community import Community
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX, \
    figure4_graph
from repro.engine.engine import QueryEngine
from repro.exceptions import ServiceError
from repro.service import CommunityService, ServiceClient
from repro.service.errors import (
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    ServiceUnreachable,
)
from repro.service.serialize import community_to_dict
from repro.shard import RouterCore, owning_shard, partition_snapshot
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


# ----------------------------------------------------------------------
# owner-restricted shards: ownership check, identity, legacy refusals
# ----------------------------------------------------------------------
def _community(core, cost):
    """A minimal wire-form community over its own core nodes."""
    return community_to_dict(Community(
        core=tuple(core), cost=float(cost), centers=tuple(core[:1]),
        pnodes=tuple(core), nodes=tuple(sorted(set(core))), edges=()))


@pytest.mark.parametrize("mode", ["topk", "all"])
def test_leg_anchored_on_another_shards_node_is_a_shard_failure(
        fleet, mode):
    """Shard 1's leg returns a community anchored on a node shard 0
    owns — what an unrestricted shard snapshot would do. The leg
    counts as a failed shard (200, partial) and none of its answers
    are merged."""
    router, _, manifest = fleet
    core = RouterCore(manifest)
    body = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX}
    body.update({"k": 3} if mode == "topk" else {"mode": "all"})
    plan = core.parse_query(json.dumps(body).encode())
    own0 = [g for g in range(manifest.total_nodes)
            if owning_shard(g, len(manifest.shards)) == 0]
    owned_reply = {"communities": [_community([own0[0]], 1.0)]}
    foreign_reply = {"communities": [_community([own0[1]], 0.5)]}
    outcome = core.reduce(plan, {0: owned_reply, 1: foreign_reply})
    assert outcome.failed == [1]
    assert outcome.answered == [0]
    assert [c.core for c in outcome.communities] == [(own0[0],)]
    envelope = core.envelope(plan, outcome.communities,
                             answered=len(outcome.answered))
    assert envelope["partial"] is True
    assert envelope["shards_answered"] == 1
    metrics = core.render_metrics(router.replica_sets)
    assert "repro_router_ownership_violations_total 1" in metrics
    assert "repro_router_shard_failures_total 1" in metrics


@pytest.mark.parametrize("mode", ["topk", "all"])
def test_a_legs_refusal_is_raised_and_an_outage_is_partial(fleet, mode):
    """A shard's 400 is the router's reply, with the shard's status
    and message, even when the other shard's leg timed out; a leg
    that sheds (429), times out, is torn or answers 503 or 500
    instead degrades the answer to a partial 200."""
    _, _, manifest = fleet
    core = RouterCore(manifest)
    body = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX}
    body.update({"k": 3} if mode == "topk" else {"mode": "all"})
    plan = core.parse_query(json.dumps(body).encode())
    refusal = BadRequest("Rmax=11.0 exceeds the index radius R=10.0")
    timeout = ServiceUnreachable("no answer within 10.0s")
    for responses in ({0: refusal, 1: timeout},
                      {0: timeout, 1: refusal}):
        with pytest.raises(BadRequest) as excinfo:
            core.reduce(plan, responses)
        assert excinfo.value is refusal
    own0 = next(g for g in range(manifest.total_nodes)
                if owning_shard(g, len(manifest.shards)) == 0)
    answered = {"communities": [_community([own0], 1.0)]}
    torn = ServiceUnreachable("connection to the shard was torn")
    failed = ServiceError("internal error")
    failed.status = 500
    for outage in (timeout, torn, DeadlineExceeded("deadline"),
                   Overloaded("queue full"), failed):
        outcome = core.reduce(plan, {0: answered, 1: outage})
        assert outcome.failed == [1]
        envelope = core.envelope(plan, outcome.communities,
                                 answered=len(outcome.answered))
        assert envelope["partial"] is True
        assert envelope["shards_answered"] == 1
        assert envelope["shards_total"] == 2
        assert envelope["count"] == 1


def _counter(router, name):
    """One ``repro_router_*_total`` counter from a ``/metrics``
    scrape (0 before its first increment)."""
    _, _, body, _ = _handle(router, "GET", "/metrics")
    for line in body.splitlines():
        if line.startswith(f"repro_router_{name}_total "):
            return float(line.split()[1])
    return 0.0


def test_one_merge_round_and_one_leg_per_shard(fleet):
    router, _, _ = fleet
    rounds, legs = (_counter(router, name)
                    for name in ("merge_rounds", "fanout_legs"))
    for k in (1, 3, 50):
        status, _ = _post(router, "/query", {
            "keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": k})
        assert status == 200
    assert _counter(router, "merge_rounds") - rounds == 3
    assert _counter(router, "fanout_legs") - legs == 6


def test_shard_backends_say_which_shard_they_serve(fleet):
    router, _, manifest = fleet
    for replicas in router.replica_sets:
        entry = manifest.shards[replicas.shard_id]
        health = ServiceClient(replicas.urls[0]).health()
        assert health["partition"] == {
            "shard": replicas.shard_id, "of": 2,
            "owned_nodes": entry.owned_nodes}
    _, _, body, _ = _handle(router, "GET", "/healthz")
    for row in json.loads(body)["shards"]:
        assert [replica["shard"] for replica in row["replicas"]] \
            == [row["shard"]]


def _legacy_manifest(router, tmp_path):
    """A copy of the fleet's ``routing.json`` stamped version 1, as
    a partition run before owned sections wrote it."""
    payload = json.loads(
        (router.core.root / "routing.json").read_text())
    payload["version"] = 1
    (tmp_path / "routing.json").write_text(json.dumps(payload))
    return tmp_path


def test_serve_router_refuses_a_version_1_manifest(fleet, tmp_path,
                                                   capsys):
    router, _, _ = fleet
    legacy = _legacy_manifest(router, tmp_path)
    # One URL for two shards: a manifest the router accepted would
    # stop at the arity check, before binding anything.
    assert main(["serve-router", "--manifest", str(legacy),
                 "--shard-url", "http://127.0.0.1:1"]) == 2
    assert "snapshot partition" in capsys.readouterr().err


def test_reload_refuses_a_version_1_manifest(fleet, tmp_path):
    router, _, manifest = fleet
    legacy = _legacy_manifest(router, tmp_path)
    status, body = _post(router, "/admin/reload",
                         {"path": str(legacy)})
    assert status == 400
    assert "snapshot partition" in body["error"]
    assert router.core.capture().generation == manifest.generation


def test_backend_reload_refuses_a_shard_snapshot_without_owned_section(
        tmp_path):
    dbg = figure4_graph()
    index = CommunityIndex.build(dbg, 10.0)
    store = SnapshotStore(tmp_path / "store")
    service = CommunityService(QueryEngine.from_snapshot(
        store.publish(dbg, index).path), port=0)
    generation = service.engine.generation
    legacy = store.publish(dbg, CommunityIndex.build(dbg, 8.0),
                           provenance={"partition": {"shard": 0,
                                                     "of": 2}})
    status, body = _post(service, "/admin/reload",
                         {"path": str(legacy.path)})
    assert status == 400
    assert "owned" in body["error"]
    assert service.engine.generation == generation
