"""Partitioner invariants and routing-manifest round-trips."""

import json

import pytest

from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX, \
    figure4_graph
from repro.exceptions import (
    QueryError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotNotFoundError,
)
from repro.graph.generators import random_database_graph
from repro.shard import (
    ROUTING_NAME,
    KeywordBloom,
    RoutingManifest,
    is_routing_root,
    partition_graph,
    partition_snapshot,
)
from repro.snapshot.store import SnapshotStore
from repro.text.inverted_index import CommunityIndex


def _random(seed=0, n=16):
    return random_database_graph(n, 0.25, ["a", "b", "c"], seed=seed)


# ----------------------------------------------------------------------
# partition_graph
# ----------------------------------------------------------------------
def test_every_node_owned_exactly_once():
    dbg = _random()
    result = partition_graph(dbg, 6.0, 3)
    assert len(result.owners) == dbg.n
    owned = sorted(g for b in result.bundles for g in b.owned)
    assert owned == list(range(dbg.n))
    for bundle in result.bundles:
        for g in bundle.owned:
            assert result.owners[g] == bundle.shard_id


def test_owned_nodes_are_members_and_node_map_sorted():
    result = partition_graph(_random(), 6.0, 3)
    for bundle in result.bundles:
        members = set(bundle.node_map)
        assert set(bundle.owned) <= members
        assert bundle.node_map == sorted(bundle.node_map)
        assert bundle.dbg.n == len(bundle.node_map)


def test_halo_defaults_to_three_radii():
    result = partition_graph(_random(), 5.0, 2)
    assert result.halo_radius == 15.0
    explicit = partition_graph(_random(), 5.0, 2, halo_radius=7.0)
    assert explicit.halo_radius == 7.0


def test_halo_contains_all_nodes_within_distance():
    """Every node within undirected halo distance of an owned node is
    a shard member — the containment bound the merge relies on."""
    import heapq

    dbg = _random(seed=2)
    result = partition_graph(dbg, 4.0, 2)
    adjacency = [[] for _ in range(dbg.n)]
    for u, v, w in dbg.graph.edges():
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    for bundle in result.bundles:
        dist = {g: 0.0 for g in bundle.owned}
        heap = [(0.0, g) for g in bundle.owned]
        heapq.heapify(heap)
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for nb, w in adjacency[node]:
                nd = d + w
                if nd <= result.halo_radius \
                        and nd < dist.get(nb, float("inf")):
                    dist[nb] = nd
                    heapq.heappush(heap, (nd, nb))
        assert set(dist) <= set(bundle.node_map)


def test_shard_subgraph_preserves_keywords_and_labels():
    dbg = figure4_graph()
    result = partition_graph(dbg, 8.0, 2)
    for bundle in result.bundles:
        for local, g in enumerate(bundle.node_map):
            assert bundle.dbg.keywords_of(local) == dbg.keywords_of(g)
            assert bundle.dbg.label_of(local) == dbg.label_of(g)


def test_single_shard_is_whole_graph():
    dbg = _random()
    result = partition_graph(dbg, 6.0, 1)
    assert len(result.bundles) == 1
    assert result.bundles[0].node_map == list(range(dbg.n))


def test_partition_validation():
    dbg = _random(n=4)
    with pytest.raises(QueryError):
        partition_graph(dbg, 6.0, 0)
    with pytest.raises(QueryError):
        partition_graph(dbg, 6.0, 5)
    with pytest.raises(QueryError):
        partition_graph(dbg, -1.0, 2)


# ----------------------------------------------------------------------
# KeywordBloom
# ----------------------------------------------------------------------
def test_bloom_has_no_false_negatives():
    keys = [f"kw{i:04d}" for i in range(200)]
    bloom = KeywordBloom.build(keys)
    assert all(bloom.might_contain(k) for k in keys)


def test_bloom_rejects_most_absent_keys():
    bloom = KeywordBloom.build([f"kw{i:04d}" for i in range(200)])
    absent = [f"zz{i:04d}" for i in range(500)]
    false_positives = sum(bloom.might_contain(k) for k in absent)
    assert false_positives < 25          # ~1% expected at 10 bits/key


def test_bloom_json_round_trip():
    bloom = KeywordBloom.build(["alpha", "beta"])
    clone = KeywordBloom.from_dict(
        json.loads(json.dumps(bloom.to_dict())))
    assert clone.might_contain("alpha")
    assert clone.might_contain("beta")
    assert not clone.might_contain("gamma")
    assert clone.bitmap == bloom.bitmap


# ----------------------------------------------------------------------
# partition_snapshot + RoutingManifest
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def partitioned(tmp_path_factory):
    """A published fig4 snapshot partitioned into two shards."""
    tmp = tmp_path_factory.mktemp("parts")
    dbg = figure4_graph()
    store = SnapshotStore(tmp / "store")
    snapshot = store.publish(dbg, CommunityIndex.build(dbg, 10.0),
                             provenance={"dataset": "fig4"})
    manifest, path = partition_snapshot(tmp / "store", tmp / "out", 2)
    return snapshot, manifest, path, tmp


def test_partition_snapshot_publishes_loadable_shards(partitioned):
    from repro.snapshot.snapshot import load_snapshot

    snapshot, manifest, path, tmp = partitioned
    assert manifest.source_snapshot == snapshot.id
    assert len(manifest.shards) == 2
    for entry in manifest.shards:
        shard = load_snapshot(
            tmp / "out" / entry.store / entry.snapshot_id)
        assert shard.id == entry.snapshot_id
        assert shard.dbg.n == len(entry.node_map)
        assert shard.index is not None
        assert shard.index.radius == manifest.index_radius
        assert shard.provenance["partition"]["source_snapshot"] \
            == snapshot.id


def test_shard_snapshots_carry_their_owned_sets(partitioned):
    """Each shard snapshot's ``owned`` section lists exactly the
    nodes the manifest's ``owners`` map gives that shard, in local
    ids, and an engine on it answers only with communities anchored
    there — materialized queries and PDk session streams alike."""
    from repro.engine.engine import QueryEngine
    from repro.engine.spec import QuerySpec

    _, manifest, _, tmp = partitioned
    answered = 0
    for entry in manifest.shards:
        engine = QueryEngine.from_snapshot(
            tmp / "out" / entry.store / entry.snapshot_id)
        owned = {entry.node_map[u] for u in engine.owned}
        assert owned == {g for g, shard in enumerate(manifest.owners)
                         if shard == entry.shard_id}
        assert len(owned) == entry.owned_nodes
        every = engine.run_all(QuerySpec.comm_all(FIG4_QUERY, FIG4_RMAX))
        streamed = engine.top_k_stream(list(FIG4_QUERY),
                                       FIG4_RMAX).take(50)
        assert {c.core for c in streamed} == {c.core for c in every}
        assert all(c.core[0] in engine.owned for c in every)
        answered += len(every)
    assert answered


def test_engine_refuses_a_shard_snapshot_without_owned_section(
        tmp_path):
    """A shard snapshot from before owned sections would enumerate
    communities other shards own: adopting it is a typed error."""
    from repro.engine.engine import QueryEngine

    dbg = figure4_graph()
    index = CommunityIndex.build(dbg, 10.0)
    store = SnapshotStore(tmp_path / "store")
    legacy = store.publish(dbg, index, provenance={
        "partition": {"shard": 0, "of": 2}})
    with pytest.raises(SnapshotFormatError, match="snapshot partition"):
        QueryEngine.from_snapshot(legacy.path)
    engine = QueryEngine.from_snapshot(store.publish(
        dbg, CommunityIndex.build(dbg, 8.0)).path)
    generation = engine.generation
    with pytest.raises(SnapshotFormatError):
        engine.load_snapshot(legacy.path)
    assert engine.generation == generation
    assert engine.partition is None and engine.owned is None


def test_routing_manifest_round_trip(partitioned):
    _, manifest, path, tmp = partitioned
    loaded = RoutingManifest.load(tmp / "out")
    assert loaded.generation == manifest.generation
    assert loaded.owners == manifest.owners
    assert loaded.index_radius == manifest.index_radius
    assert [e.snapshot_id for e in loaded.shards] \
        == [e.snapshot_id for e in manifest.shards]
    assert [e.node_map for e in loaded.shards] \
        == [e.node_map for e in manifest.shards]
    # The file itself loads too.
    assert RoutingManifest.load(path).generation == manifest.generation


def test_is_routing_root(partitioned, tmp_path):
    _, _, path, tmp = partitioned
    assert is_routing_root(tmp / "out")
    assert is_routing_root(path)
    assert not is_routing_root(tmp / "store")
    assert not is_routing_root(tmp_path)


def test_keyword_routing(partitioned):
    _, manifest, _, _ = partitioned
    assert manifest.keyword_known("a")
    assert not manifest.keyword_known("definitely-not-a-keyword")
    assert manifest.shards_for(["a", "b"])
    assert manifest.shards_for(["definitely-not-a-keyword"]) == []


def test_manifest_rejects_wrong_kind_and_version(tmp_path):
    (tmp_path / ROUTING_NAME).write_text(json.dumps({"kind": "nope"}))
    with pytest.raises(SnapshotFormatError):
        RoutingManifest.load(tmp_path)
    with pytest.raises(SnapshotNotFoundError):
        RoutingManifest.load(tmp_path / "missing")
    # Version 1 predates shard snapshots carrying their owned sets.
    for version in (1, 99):
        (tmp_path / ROUTING_NAME).write_text(json.dumps(
            {"kind": "routing-manifest", "version": version}))
        with pytest.raises(SnapshotFormatError,
                           match="snapshot partition"):
            RoutingManifest.load(tmp_path)


def test_partition_requires_an_index(tmp_path):
    dbg = figure4_graph()
    SnapshotStore(tmp_path / "store").publish(dbg)   # graph only
    with pytest.raises(SnapshotError):
        partition_snapshot(tmp_path / "store", tmp_path / "out", 2)


def test_repartition_is_structurally_stable(partitioned):
    """Re-partitioning reproduces the same regions and ownership
    (snapshot *ids* differ — the index section embeds build time)."""
    _, manifest, _, tmp = partitioned
    again, _ = partition_snapshot(tmp / "store", tmp / "out2", 2)
    assert again.owners == manifest.owners
    assert [e.node_map for e in again.shards] \
        == [e.node_map for e in manifest.shards]
    assert [e.owned_nodes for e in again.shards] \
        == [e.owned_nodes for e in manifest.shards]
