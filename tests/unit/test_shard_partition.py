"""Partitioner invariants and routing-manifest round-trips."""

import json
import os
import shutil

import pytest

from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX, \
    figure4_graph
from repro.engine.spec import QuerySpec
from repro.exceptions import (
    QueryError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotNotFoundError,
)
from repro.graph.generators import random_database_graph
from repro.shard import (
    ROUTING_NAME,
    RouterCore,
    RoutingManifest,
    is_routing_root,
    owning_shard,
    partition_graph,
    partition_snapshot,
)
from repro.snapshot.snapshot import load_snapshot, verify_snapshot
from repro.snapshot.store import SnapshotStore
from repro.text.inverted_index import CommunityIndex


def _random(seed=0, n=16):
    return random_database_graph(n, 0.25, ["a", "b", "c"], seed=seed)


# ----------------------------------------------------------------------
# partition_graph and what a shard snapshot holds
# ----------------------------------------------------------------------
def _published(tmp_path, dbg, radius=6.0, shards=2):
    """``dbg`` published at ``radius`` and partitioned into
    ``shards``: (base snapshot, manifest, partition root)."""
    base = SnapshotStore(tmp_path / "store").publish(
        dbg, CommunityIndex.build(dbg, radius))
    manifest, _ = partition_snapshot(tmp_path / "store",
                                     tmp_path / "out", shards)
    return base, manifest, tmp_path / "out"


def _shards(manifest, root):
    """Every shard snapshot of a partition root, loaded."""
    return [load_snapshot(root / e.store / e.snapshot_id)
            for e in manifest.shards]


def _owned_by(manifest, shard_id):
    """The nodes the ownership rule gives shard ``shard_id``."""
    return [g for g in range(manifest.total_nodes)
            if owning_shard(g, len(manifest.shards)) == shard_id]


def test_every_node_owned_exactly_once():
    dbg = _random()
    owners = partition_graph(dbg, 3)
    assert owners == [g % 3 for g in range(dbg.n)]
    assert owners == [owning_shard(g, 3) for g in range(dbg.n)]
    assert set(owners) == {0, 1, 2}


def test_owned_nodes_are_members_and_node_map_sorted(tmp_path):
    """Each shard's ``owned`` section is sorted and names exactly the
    nodes the ownership rule gives it, in the base graph's own ids."""
    base, manifest, root = _published(tmp_path, _random(), shards=3)
    for entry, shard in zip(manifest.shards, _shards(manifest, root)):
        owned = shard.owned.tolist()
        assert owned == sorted(owned)
        assert owned == _owned_by(manifest, entry.shard_id)
        assert shard.dbg.n == base.dbg.n == entry.counts["nodes"]
        assert entry.owned_nodes == len(owned)


def test_halo_defaults_to_three_radii(tmp_path):
    """There is no halo to size: every shard snapshot holds the
    base's whole graph and its index at the base radius R."""
    base, manifest, root = _published(tmp_path, _random(), radius=5.0)
    assert manifest.index_radius == 5.0
    for shard in _shards(manifest, root):
        assert shard.radius == 5.0
        assert shard.counts == base.counts


def test_halo_contains_all_nodes_within_distance(tmp_path):
    """A shard computes on the base graph itself, so every distance a
    shard's query measures is the global distance."""
    dbg = _random(seed=2)
    _, manifest, root = _published(tmp_path, dbg, radius=4.0)
    edges = sorted(dbg.graph.edges())
    for shard in _shards(manifest, root):
        assert sorted(shard.dbg.graph.edges()) == edges


def test_shard_subgraph_preserves_keywords_and_labels(tmp_path):
    """Every shard snapshot holds the base's nodes, keywords, labels
    and postings under the base's ids."""
    dbg = figure4_graph()
    base, manifest, root = _published(tmp_path, dbg, radius=8.0)
    for shard in _shards(manifest, root):
        for g in range(dbg.n):
            assert shard.dbg.keywords_of(g) == dbg.keywords_of(g)
            assert shard.dbg.label_of(g) == dbg.label_of(g)
        for kw in FIG4_QUERY:
            assert shard.index.node_index.nodes(kw) \
                == base.index.node_index.nodes(kw)


def test_single_shard_is_whole_graph(tmp_path):
    dbg = _random()
    base, manifest, root = _published(tmp_path, dbg, shards=1)
    assert _owned_by(manifest, 0) == list(range(dbg.n))
    (shard,) = _shards(manifest, root)
    assert shard.owned.tolist() == list(range(dbg.n))
    assert shard.counts == base.counts


def test_partition_validation(tmp_path):
    dbg = _random(n=4)
    with pytest.raises(QueryError):
        partition_graph(dbg, 0)
    with pytest.raises(QueryError):
        partition_graph(dbg, 5)
    SnapshotStore(tmp_path / "store").publish(
        dbg, CommunityIndex.build(dbg, 6.0))
    with pytest.raises(QueryError):
        partition_snapshot(tmp_path / "store", tmp_path / "out", 5)
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------------
# keywords: the shards, not the router, know the vocabulary
# ----------------------------------------------------------------------
def test_bloom_has_no_false_negatives(tmp_path):
    """No shard refuses a keyword the base indexes: every shard
    snapshot holds the base's whole vocabulary, and an engine on it
    resolves every keyword."""
    from repro.engine.engine import QueryEngine

    base, manifest, root = _published(tmp_path, _random(n=24),
                                      shards=3)
    vocabulary = sorted(base.index.node_index.keywords())
    assert vocabulary
    for entry, shard in zip(manifest.shards, _shards(manifest, root)):
        assert sorted(shard.index.node_index.keywords()) == vocabulary
        engine = QueryEngine.from_snapshot(
            root / entry.store / entry.snapshot_id)
        for keyword in vocabulary:
            engine.execute(QuerySpec.comm_all([keyword], 1.0))


def test_bloom_rejects_most_absent_keys(tmp_path):
    """Every shard refuses an absent keyword with the base's own
    error: that refusal, not a router-side filter, is what the
    router answers."""
    from repro.engine.engine import QueryEngine

    base, manifest, root = _published(tmp_path, _random(), shards=2)
    spec = QuerySpec.comm_all(["zz-absent"], 1.0)
    with pytest.raises(QueryError) as single:
        QueryEngine.from_snapshot(base.path).execute(spec)
    for entry in manifest.shards:
        with pytest.raises(QueryError) as shard:
            QueryEngine.from_snapshot(
                root / entry.store / entry.snapshot_id).execute(spec)
        assert str(shard.value) == str(single.value)


def test_bloom_json_round_trip(partitioned):
    """``routing.json`` is version 4 and keeps no per-node or
    per-keyword state: no ``owners``, no keyword filter. Each shard
    row still lists ``node_map`` beside ``total_nodes`` for readers
    that measure a shard's share of the graph."""
    _, manifest, path, _ = partitioned
    written = json.loads(path.read_text())
    assert written["version"] == 4
    assert not {"owners", "bloom"} & set(written)
    assert written["total_nodes"] == manifest.total_nodes == 13
    for row in written["shards"]:
        assert row["node_map"] == list(range(13))
    assert RoutingManifest.from_dict(json.loads(json.dumps(
        manifest.to_dict()))).to_dict() == manifest.to_dict()


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
    snapshot, manifest, path, tmp = partitioned
    assert manifest.source_snapshot == snapshot.id
    assert len(manifest.shards) == 2
    for entry in manifest.shards:
        shard = load_snapshot(
            tmp / "out" / entry.store / entry.snapshot_id)
        assert shard.id == entry.snapshot_id
        assert shard.dbg.n == manifest.total_nodes
        assert shard.index is not None
        assert shard.index.radius == manifest.index_radius
        assert shard.provenance["partition"]["source_snapshot"] \
            == snapshot.id


def test_shard_snapshots_carry_their_owned_sets(partitioned):
    """Each shard snapshot's ``owned`` section lists exactly the
    nodes the ownership rule gives that shard, and an engine on it
    answers only with communities anchored there — materialized
    queries and PDk session streams alike."""
    from repro.engine.engine import QueryEngine

    _, manifest, _, tmp = partitioned
    answered = 0
    for entry in manifest.shards:
        engine = QueryEngine.from_snapshot(
            tmp / "out" / entry.store / entry.snapshot_id)
        owned = set(engine.owned)
        assert owned == set(_owned_by(manifest, entry.shard_id))
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
    assert loaded.total_nodes == manifest.total_nodes
    assert loaded.index_radius == manifest.index_radius
    assert [e.snapshot_id for e in loaded.shards] \
        == [e.snapshot_id for e in manifest.shards]
    assert [e.to_dict() for e in loaded.shards] \
        == [e.to_dict() for e in manifest.shards]
    assert loaded.to_dict() == manifest.to_dict()
    # The file itself loads too.
    assert RoutingManifest.load(path).generation == manifest.generation


def test_is_routing_root(partitioned, tmp_path):
    _, _, path, tmp = partitioned
    assert is_routing_root(tmp / "out")
    assert is_routing_root(path)
    assert not is_routing_root(tmp / "store")
    assert not is_routing_root(tmp_path)


def test_keyword_routing(partitioned):
    """The router routes no keyword: a query on a keyword the fleet
    indexes and one on a keyword it does not both parse into a plan
    for every shard, and each leg carries the keywords as given
    (sorted and case-folded, as every spec)."""
    _, manifest, _, _ = partitioned
    core = RouterCore(manifest)
    for keywords in (["B", "a"], ["definitely-not-a-keyword"]):
        plan = core.parse_query(json.dumps(
            {"keywords": keywords, "rmax": 4.0}).encode())
        assert plan.manifest is manifest
        assert core.shard_payload(plan.spec, None, False)["keywords"] \
            == sorted(kw.casefold() for kw in keywords)


def test_manifest_rejects_wrong_kind_and_version(tmp_path):
    (tmp_path / ROUTING_NAME).write_text(json.dumps({"kind": "nope"}))
    with pytest.raises(SnapshotFormatError):
        RoutingManifest.load(tmp_path)
    with pytest.raises(SnapshotNotFoundError):
        RoutingManifest.load(tmp_path / "missing")
    # Version 1 predates shard snapshots carrying their owned sets;
    # version 2 shards held relabeled subgraphs; version 3 kept an
    # ownership array and a keyword filter.
    for version in (1, 2, 3, 99):
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
    """Re-partitioning the same base reproduces every shard's owned
    set, every shard snapshot id and the manifest generation: ids
    digest the sections, and no section holds a build time."""
    _, manifest, _, tmp = partitioned
    again, _ = partition_snapshot(tmp / "store", tmp / "out2", 2)
    assert [load_snapshot(tmp / "out2" / e.store / e.snapshot_id)
            .owned.tolist() for e in again.shards] \
        == [_owned_by(manifest, e.shard_id) for e in manifest.shards]
    assert dict(again.to_dict(), created_at=None) \
        == dict(manifest.to_dict(), created_at=None)
    assert [e.snapshot_id for e in again.shards] \
        == [e.snapshot_id for e in manifest.shards]
    assert again.generation == manifest.generation
    assert [e.owned_nodes for e in again.shards] \
        == [e.owned_nodes for e in manifest.shards]


# ----------------------------------------------------------------------
# shard snapshots share the base's section files
# ----------------------------------------------------------------------
_SHARED = ("graph.bin", "nodes.json", "index.json", "postings.bin")


def test_shards_share_the_base_files(partitioned):
    """Each shard's graph, nodes, index and postings files are the
    base's files; only ``owned.bin`` and ``manifest.json`` are new."""
    snapshot, manifest, _, tmp = partitioned
    for entry in manifest.shards:
        shard_dir = tmp / "out" / entry.store / entry.snapshot_id
        for name in _SHARED:
            assert os.path.samefile(shard_dir / name,
                                    snapshot.path / name)
        assert {p.name for p in shard_dir.iterdir()} \
            == set(_SHARED) | {"owned.bin", "manifest.json"}


def test_partition_copies_sections_where_links_fail(partitioned,
                                                    tmp_path,
                                                    monkeypatch):
    """Where the filesystem refuses a hard link, partition writes the
    bytes: the same snapshot ids, in files of their own."""
    snapshot, manifest, _, tmp = partitioned

    def refuse(*_args, **_kwargs):
        raise OSError("cross-device link")

    monkeypatch.setattr(os, "link", refuse)
    copied, _ = partition_snapshot(tmp / "store", tmp_path / "out", 2)
    assert [e.snapshot_id for e in copied.shards] \
        == [e.snapshot_id for e in manifest.shards]
    for entry in copied.shards:
        shard_dir = tmp_path / "out" / entry.store / entry.snapshot_id
        for name in _SHARED:
            assert not os.path.samefile(shard_dir / name,
                                        snapshot.path / name)


def test_shards_and_base_survive_each_other(tmp_path):
    """Deleting the base store leaves every shard verifiable, and
    deleting the shard stores leaves the base verifiable."""
    dbg = figure4_graph()
    _, manifest, root = _published(tmp_path / "a", dbg, radius=10.0)
    shutil.rmtree(tmp_path / "a" / "store")
    for entry in manifest.shards:
        verify_snapshot(root / entry.store / entry.snapshot_id)
    base, _, root = _published(tmp_path / "b", dbg, radius=10.0)
    shutil.rmtree(root / "shards")
    assert verify_snapshot(base.path)["id"] == base.id
