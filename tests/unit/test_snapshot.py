"""Unit tests for the snapshot format, store, and engine lifecycle.

Covers the PR's acceptance properties at the unit level:

* a snapshot round-trips bit-identically — rewriting the same content
  reproduces the same per-section checksums and the same id, and
  rewriting a loaded snapshot copies its mapped postings without
  decoding them;
* every flipped byte is rejected at load/verify time with the typed
  error taxonomy, and so is a gzip-flagged manifest from an earlier
  release;
* the store publishes atomically, resolves ``latest``, lists and
  prunes; republishing identical content is idempotent;
* the engine adopts the snapshot id as its generation, swaps
  atomically, and treats a content-identical swap as a no-op (cache
  stays warm).
"""

import hashlib
import json

import pytest

from repro.bench.workloads import load_dataset, publish_snapshot
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.engine import QueryEngine
from repro.exceptions import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    SnapshotVersionError,
)
from repro.snapshot import (
    MANIFEST_NAME,
    SnapshotStore,
    load_snapshot,
    locate_snapshot,
    read_manifest,
    verify_snapshot,
    write_snapshot,
)
from repro.text.inverted_index import (
    CommunityIndex,
    EdgeInvertedIndex,
    NodeInvertedIndex,
)


@pytest.fixture()
def fig4_index(fig4):
    return CommunityIndex.build(fig4, FIG4_RMAX)


def _assert_same_graph(a, b):
    assert a.n == b.n and a.m == b.m
    assert list(a.graph.edges()) == list(b.graph.edges())
    for u in range(a.n):
        assert a.keywords_of(u) == b.keywords_of(u)
        assert a.label_of(u) == b.label_of(u)
        assert a.provenance_of(u) == b.provenance_of(u)


def _assert_same_index(a, b):
    assert a.radius == b.radius
    assert a.node_index.keywords() == b.node_index.keywords()
    assert a.edge_index.keywords() == b.edge_index.keywords()
    for kw in a.node_index.keywords():
        assert a.node_index.nodes(kw) == b.node_index.nodes(kw)
    for kw in a.edge_index.keywords():
        assert a.edge_index.edges(kw) == b.edge_index.edges(kw)


class TestFormat:
    def test_round_trip(self, fig4, fig4_index, tmp_path):
        snap = write_snapshot(tmp_path / "s", fig4, fig4_index,
                              provenance={"dataset": "fig4"})
        loaded = load_snapshot(tmp_path / "s")
        assert loaded.id == snap.id
        assert loaded.provenance == {"dataset": "fig4"}
        _assert_same_graph(loaded.dbg, fig4)
        _assert_same_index(loaded.index, fig4_index)
        # Postings reference the *loaded* graph, not the original.
        assert loaded.index.dbg is loaded.dbg

    def test_rewrite_is_bit_identical(self, fig4, fig4_index,
                                      tmp_path):
        """Same content -> same id and same section checksums."""
        a = write_snapshot(tmp_path / "a", fig4, fig4_index)
        b = write_snapshot(tmp_path / "b", fig4, fig4_index)
        assert a.id == b.id
        shas_a = {k: v["sha256"] for k, v in a.manifest["sections"].items()}
        shas_b = {k: v["sha256"] for k, v in b.manifest["sections"].items()}
        assert shas_a == shas_b
        for name in ("graph.bin", "nodes.json", "index.json",
                     "postings.bin"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_owned_set_is_part_of_the_id(self, fig4, fig4_index,
                                         tmp_path):
        """The same graph and index published with two owned sets are
        two snapshots, so the generation covers the restriction."""
        store = SnapshotStore(tmp_path / "store")
        whole = store.publish(fig4, fig4_index)
        left = store.publish(fig4, fig4_index, owned=[0, 1, 2])
        right = store.publish(fig4, fig4_index, owned=[3, 4, 5])
        assert len({whole.id, left.id, right.id}) == 3
        assert "owned" not in whole.manifest["sections"]
        loaded = load_snapshot(store.resolve(right.id))
        assert loaded.owned.tolist() == [3, 4, 5]
        assert load_snapshot(store.resolve(whole.id)).owned is None
        # Stored sorted and duplicate-free, whatever the caller passed.
        again = store.publish(fig4, fig4_index, owned=[5, 3, 4, 3])
        assert again.id == right.id

    def test_gzip_flagged_manifest_is_refused(self, fig4, fig4_index,
                                              tmp_path):
        """At-rest gzip is gone: a manifest from an earlier release
        that flags a compressed section fails with a typed error that
        says to rebuild — at load and when an ingest begins."""
        write_snapshot(tmp_path / "s", fig4, fig4_index)
        manifest_path = tmp_path / "s" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["sections"]["graph"]["gzip"] = True
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotFormatError, match="rebuild"):
            load_snapshot(tmp_path / "s")
        store = SnapshotStore(tmp_path / "store")
        with pytest.raises(SnapshotFormatError, match="gzip"):
            store.ingest(manifest)
        assert [p.name for p in store.root.iterdir()] == []

    def test_graph_only_snapshot(self, fig4, tmp_path):
        snap = write_snapshot(tmp_path / "g", fig4)
        loaded = load_snapshot(tmp_path / "g")
        assert loaded.index is None
        assert loaded.radius is None
        assert not snap.manifest["has_index"]
        _assert_same_graph(loaded.dbg, fig4)

    def test_refuses_to_overwrite(self, fig4, tmp_path):
        write_snapshot(tmp_path / "s", fig4)
        with pytest.raises(SnapshotFormatError):
            write_snapshot(tmp_path / "s", fig4)

    def test_id_ignores_created_at(self, fig4, fig4_index, tmp_path):
        snap = write_snapshot(tmp_path / "s", fig4, fig4_index)
        manifest_path = tmp_path / "s" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["created_at"] = "1999-01-01T00:00:00Z"
        manifest_path.write_text(json.dumps(manifest))
        assert load_snapshot(tmp_path / "s").id == snap.id

    def test_two_builds_publish_one_id(self, fig4, tmp_path):
        """The id digests content, not the wall-clock build time: two
        independent builds of the same data publish one id, and each
        manifest keeps its own build time."""
        builds = [CommunityIndex.build(fig4, FIG4_RMAX)
                  for _ in range(2)]
        builds[1].build_seconds += 1.0   # a slower second build
        snaps = [write_snapshot(tmp_path / str(i), fig4, index)
                 for i, index in enumerate(builds)]
        assert snaps[0].id == snaps[1].id
        for i, index in enumerate(builds):
            assert load_snapshot(tmp_path / str(i)).index.build_seconds \
                == index.build_seconds

    def test_rewriting_a_loaded_snapshot_decodes_no_postings(
            self, tmp_path):
        """A loaded snapshot written again publishes the same id, its
        postings copied as slices of the mapped columns: neither index
        decodes a keyword into Python."""
        snap = publish_snapshot(tmp_path / "store",
                                load_dataset("dblp", "tiny"))
        loaded = load_snapshot(snap.path)
        again = write_snapshot(tmp_path / "again", loaded.dbg,
                               loaded.index, provenance=loaded.provenance)
        assert again.id == snap.id
        assert {k: v["sha256"] for k, v in again.manifest["sections"]
                .items()} == {k: v["sha256"] for k, v in
                              snap.manifest["sections"].items()}
        assert not loaded.index.node_index._columns._memo
        assert not loaded.index.edge_index._columns._memo

    def test_build_time_in_an_older_index_section_loads(
            self, fig4, fig4_index, tmp_path):
        """Earlier releases kept the build time in ``index.json``;
        such a snapshot still loads, with that build time."""
        write_snapshot(tmp_path / "s", fig4, fig4_index)
        index_path = tmp_path / "s" / "index.json"
        directory = json.loads(index_path.read_text())
        directory["build_seconds"] = 12.5
        data = json.dumps(directory).encode("utf-8")
        index_path.write_bytes(data)
        manifest_path = tmp_path / "s" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        del manifest["build_seconds"]
        manifest["sections"]["index"].update(
            sha256=hashlib.sha256(data).hexdigest(), bytes=len(data))
        manifest_path.write_text(json.dumps(manifest))
        assert load_snapshot(tmp_path / "s").index.build_seconds == 12.5


class TestCorruption:
    """The typed error taxonomy, one class per failure mode."""

    @pytest.fixture()
    def snap_dir(self, fig4, fig4_index, tmp_path):
        write_snapshot(tmp_path / "s", fig4, fig4_index)
        return tmp_path / "s"

    @pytest.mark.parametrize("section", ["graph.bin", "nodes.json",
                                         "index.json", "postings.bin"])
    def test_flipped_byte_rejected(self, snap_dir, section):
        target = snap_dir / section
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(SnapshotIntegrityError):
            verify_snapshot(snap_dir)

    def test_truncated_section(self, snap_dir):
        target = snap_dir / "postings.bin"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(snap_dir)

    def test_missing_section_file(self, snap_dir):
        (snap_dir / "graph.bin").unlink()
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(snap_dir)

    def test_wrong_version(self, snap_dir):
        manifest_path = snap_dir / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotVersionError):
            read_manifest(snap_dir)

    def test_foreign_manifest(self, snap_dir):
        (snap_dir / MANIFEST_NAME).write_text('{"format": "other"}')
        with pytest.raises(SnapshotFormatError):
            read_manifest(snap_dir)

    def test_unparseable_manifest(self, snap_dir):
        (snap_dir / MANIFEST_NAME).write_text("{nope")
        with pytest.raises(SnapshotFormatError):
            read_manifest(snap_dir)

    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(SnapshotNotFoundError):
            load_snapshot(tmp_path / "nope")

    def test_taxonomy_roots(self):
        """Every snapshot failure is catchable as SnapshotError."""
        for cls in (SnapshotFormatError, SnapshotVersionError,
                    SnapshotIntegrityError, SnapshotNotFoundError):
            assert issubclass(cls, SnapshotError)
        assert issubclass(SnapshotVersionError, SnapshotFormatError)

    def test_skip_verify_still_catches_truncation(self, snap_dir):
        """verify=False skips checksums but not structural checks."""
        target = snap_dir / "graph.bin"
        target.write_bytes(target.read_bytes()[:-16])
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(snap_dir, verify=False)

    def test_verify_decodes_what_load_defers(self, snap_dir):
        """A ``nodes.json`` that checksums clean but references a
        keyword id outside its vocabulary fails ``verify_snapshot``,
        which decodes every section (loading defers that parse)."""
        target = snap_dir / "nodes.json"
        nodes = json.loads(target.read_text(encoding="utf-8"))
        nodes["node_keywords"][0] = [len(nodes["vocab"])]
        data = json.dumps(nodes).encode("utf-8")
        target.write_bytes(data)
        manifest_path = snap_dir / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["sections"]["nodes"]["sha256"] = \
            hashlib.sha256(data).hexdigest()
        manifest["sections"]["nodes"]["bytes"] = len(data)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotIntegrityError):
            verify_snapshot(snap_dir)


class TestEdgeOnlyKeywords:
    """Regression: edge-index keywords absent from the node index
    used to be silently dropped by a writer that iterated only
    ``node_index.keywords()``."""

    def test_snapshot_round_trip_keeps_edge_only_keyword(
            self, fig4, tmp_path):
        node_postings = {"a": [0, 1]}
        edge_postings = {"a": [(0, 1, 2.0)],
                         "edgeonly": [(1, 2, 3.0), (2, 3, 1.5)]}
        index = CommunityIndex(
            fig4, NodeInvertedIndex(node_postings),
            EdgeInvertedIndex(edge_postings, 5.0), 5.0, 0.0)
        write_snapshot(tmp_path / "s", fig4, index)
        loaded = load_snapshot(tmp_path / "s").index
        assert "edgeonly" in loaded.edge_index
        assert loaded.edge_index.edges("edgeonly") \
            == [(1, 2, 3.0), (2, 3, 1.5)]

    def test_explicit_vocabulary_survives(self, fig4, tmp_path):
        """An index built over an explicit vocabulary keeps keywords
        that occur in the vocabulary but not on any node."""
        index = CommunityIndex.build(fig4, FIG4_RMAX,
                                     keywords=["a", "b", "notthere"])
        write_snapshot(tmp_path / "s", fig4, index)
        loaded = load_snapshot(tmp_path / "s").index
        assert "notthere" in loaded.edge_index
        assert loaded.edge_index.edges("notthere") == []


class TestStore:
    def test_publish_resolve_load(self, fig4, fig4_index, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        snap = store.publish(fig4, fig4_index,
                             provenance={"dataset": "fig4"})
        assert store.latest_id() == snap.id
        assert store.resolve() == tmp_path / "store" / snap.id
        loaded = store.load()
        assert loaded.id == snap.id
        _assert_same_graph(loaded.dbg, fig4)

    def test_republish_identical_content_is_idempotent(
            self, fig4, fig4_index, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        first = store.publish(fig4, fig4_index)
        second = store.publish(fig4, fig4_index)
        assert first.id == second.id
        assert len(store.list()) == 1
        # No staging debris left behind.
        leftovers = [p.name for p in (tmp_path / "store").iterdir()
                     if p.name.startswith(".")]
        assert leftovers == []

    def test_latest_moves_to_newer_content(self, fig4, fig4_index,
                                           tmp_path):
        store = SnapshotStore(tmp_path / "store")
        old = store.publish(fig4, None)          # graph-only
        new = store.publish(fig4, fig4_index)    # with index
        assert old.id != new.id
        assert store.latest_id() == new.id
        assert len(store.list()) == 2
        flagged = {m["id"]: m["latest"] for m in store.list()}
        assert flagged == {old.id: False, new.id: True}

    def test_prune_keeps_latest(self, fig4, fig4_index, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        old = store.publish(fig4, None)
        new = store.publish(fig4, fig4_index)
        removed = store.prune(keep=1)
        assert removed == [old.id]
        assert store.latest_id() == new.id
        with pytest.raises(SnapshotNotFoundError):
            store.resolve(old.id)

    def test_empty_store_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        with pytest.raises(SnapshotNotFoundError):
            store.latest_id()
        with pytest.raises(SnapshotNotFoundError):
            store.load()

    def test_locate_accepts_dir_and_store(self, fig4, fig4_index,
                                          tmp_path):
        store = SnapshotStore(tmp_path / "store")
        snap = store.publish(fig4, fig4_index)
        direct = write_snapshot(tmp_path / "bare", fig4, fig4_index)
        assert locate_snapshot(tmp_path / "store") \
            == tmp_path / "store" / snap.id
        assert locate_snapshot(direct.path) == direct.path
        with pytest.raises(SnapshotNotFoundError):
            locate_snapshot(tmp_path)


class TestEngineLifecycle:
    def test_from_snapshot_adopts_id_as_generation(
            self, fig4, fig4_index, tmp_path):
        snap = write_snapshot(tmp_path / "s", fig4, fig4_index)
        engine = QueryEngine.from_snapshot(tmp_path / "s")
        assert engine.generation == snap.id
        assert engine.snapshot_id == snap.id
        assert engine.snapshot_loaded_at is not None
        results = engine.top_k_stream(list(FIG4_QUERY),
                                      FIG4_RMAX).take(2)
        assert len(results) == 2

    def test_swap_changes_generation_and_evicts(self, fig4,
                                                fig4_index, tmp_path):
        engine = QueryEngine(fig4)
        engine.build_index(radius=FIG4_RMAX)
        engine.project(list(FIG4_QUERY), FIG4_RMAX)
        assert len(engine.cache) == 1
        snap = write_snapshot(tmp_path / "s", fig4, fig4_index)
        changed = engine.swap_snapshot(load_snapshot(tmp_path / "s"))
        assert changed
        assert engine.generation == snap.id
        assert len(engine.cache) == 0

    def test_swap_to_identical_content_is_noop(self, fig4,
                                               fig4_index, tmp_path):
        write_snapshot(tmp_path / "s", fig4, fig4_index)
        engine = QueryEngine.from_snapshot(tmp_path / "s")
        engine.project(list(FIG4_QUERY), FIG4_RMAX)
        assert len(engine.cache) == 1
        changed = engine.swap_snapshot(load_snapshot(tmp_path / "s"))
        assert not changed
        assert len(engine.cache) == 1     # cache stayed warm

    def test_in_memory_change_diverges_from_snapshot(
            self, fig4, fig4_index, tmp_path):
        write_snapshot(tmp_path / "s", fig4, fig4_index)
        engine = QueryEngine.from_snapshot(tmp_path / "s")
        engine.build_index(radius=FIG4_RMAX)
        assert engine.snapshot_id is None
        assert engine.generation.startswith("g")

    def test_queries_answer_identically_from_snapshot(
            self, fig4, fig4_index, tmp_path):
        from repro.engine.spec import QuerySpec

        write_snapshot(tmp_path / "s", fig4, fig4_index)
        direct = QueryEngine(fig4, fig4_index)
        loaded = QueryEngine.from_snapshot(tmp_path / "s")
        spec = QuerySpec.comm_all(list(FIG4_QUERY), FIG4_RMAX)
        expected = direct.run_all(spec)
        got = loaded.run_all(spec)
        assert [(c.core, c.cost, c.nodes, c.edges) for c in got] \
            == [(c.core, c.cost, c.nodes, c.edges) for c in expected]
