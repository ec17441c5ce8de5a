"""Unit tests for incremental graph/index maintenance."""

import pytest

from repro.exceptions import GraphError
from repro.graph.database_graph import DatabaseGraph
from repro.graph.digraph import DiGraph
from repro.snapshot import load_snapshot, write_snapshot
from repro.text.inverted_index import CommunityIndex
from repro.text.maintenance import (
    GraphDelta,
    affected_keywords,
    apply_delta,
    extend_database_graph,
    update_index,
)


@pytest.fixture()
def base():
    """0(a) -1- 1 -1- 2(b), bidirected, with an index at R=4."""
    g = DiGraph(3)
    g.add_bidirected_edge(0, 1, 1.0, 1.0)
    g.add_bidirected_edge(1, 2, 1.0, 1.0)
    dbg = DatabaseGraph(g.compile(), [{"a"}, set(), {"b"}],
                        ["n0", "n1", "n2"])
    return dbg, CommunityIndex.build(dbg, radius=4.0)


class TestExtend:
    def test_nodes_appended_in_order(self, base):
        dbg, _ = base
        delta = GraphDelta(
            new_nodes=[({"c"}, "n3", ("T", 3)), (set(), "n4", None)],
            new_edges=[(2, 3, 1.0), (3, 4, 2.0)])
        new_dbg, heads = extend_database_graph(dbg, delta)
        assert new_dbg.n == 5
        assert new_dbg.label_of(3) == "n3"
        assert new_dbg.keywords_of(3) == frozenset({"c"})
        assert new_dbg.provenance_of(3) == ("T", 3)
        assert heads == {3, 4}

    def test_old_content_preserved(self, base):
        dbg, _ = base
        new_dbg, _ = extend_database_graph(
            dbg, GraphDelta(new_nodes=[(set(), "x", None)]))
        for u in range(dbg.n):
            assert new_dbg.keywords_of(u) == dbg.keywords_of(u)
            assert new_dbg.label_of(u) == dbg.label_of(u)
        assert sorted(new_dbg.graph.edges())[:dbg.m] \
            == sorted(dbg.graph.edges())

    def test_edge_bounds_checked(self, base):
        dbg, _ = base
        with pytest.raises(GraphError):
            extend_database_graph(
                dbg, GraphDelta(new_edges=[(0, 99, 1.0)]))
        with pytest.raises(GraphError):
            extend_database_graph(
                dbg, GraphDelta(new_edges=[(0, 1, -1.0)]))

    def test_banks_reweight(self, base):
        dbg, _ = base
        delta = GraphDelta(new_nodes=[(set(), "n3", None)],
                           new_edges=[(3, 1, 1.0), (1, 3, 1.0)])
        new_dbg, heads = extend_database_graph(dbg, delta,
                                               banks_reweight=True)
        # node 1 now has in-degree 3 -> weight log2(4) = 2 on edges
        # into it
        assert new_dbg.graph.edge_weight(0, 1) == 2.0
        assert new_dbg.graph.edge_weight(3, 1) == 2.0
        # in-degree of 0 unchanged (1) -> weight 1
        assert new_dbg.graph.edge_weight(1, 0) == 1.0
        assert 1 in heads and 3 in heads


class TestAffectedKeywords:
    def test_new_node_keywords_always_affected(self, base):
        dbg, _ = base
        delta = GraphDelta(new_nodes=[({"zz"}, "n3", None)])
        new_dbg, heads = extend_database_graph(dbg, delta)
        assert "zz" in affected_keywords(new_dbg, delta, heads, 4.0)

    def test_reachable_keywords_affected(self, base):
        dbg, _ = base
        # new edge into node 1; from head 1, keywords a and b are
        # reachable within the radius
        delta = GraphDelta(new_nodes=[(set(), "n3", None)],
                           new_edges=[(3, 1, 1.0)])
        new_dbg, heads = extend_database_graph(dbg, delta)
        affected = affected_keywords(new_dbg, delta, heads, 4.0)
        assert affected == {"a", "b"}

    def test_far_keywords_unaffected(self, base):
        dbg, _ = base
        # an isolated new component cannot affect a or b
        delta = GraphDelta(
            new_nodes=[({"zz"}, "n3", None), (set(), "n4", None)],
            new_edges=[(4, 3, 1.0)])
        new_dbg, heads = extend_database_graph(dbg, delta)
        affected = affected_keywords(new_dbg, delta, heads, 4.0)
        assert affected == {"zz"}


class TestUpdateIndex:
    def test_matches_full_rebuild_for_affected(self, base):
        dbg, index = base
        delta = GraphDelta(new_nodes=[({"a"}, "n3", None)],
                           new_edges=[(3, 1, 1.0), (1, 3, 1.0)])
        new_dbg, new_index = apply_delta(index, delta)
        rebuilt = CommunityIndex.build(new_dbg, radius=4.0)
        for kw in ("a", "b"):
            assert new_index.nodes(kw) == rebuilt.nodes(kw)
            assert new_index.edges(kw) == rebuilt.edges(kw)

    def test_build_seconds_accumulates(self, base):
        _, index = base
        _, new_index = apply_delta(index, GraphDelta())
        assert new_index.build_seconds >= index.build_seconds

    def test_queries_after_growth(self, base):
        from repro.core.search import CommunitySearch
        _, index = base
        # connect a new c-node near b
        delta = GraphDelta(new_nodes=[({"c"}, "n3", None)],
                           new_edges=[(2, 3, 1.0), (3, 2, 1.0)])
        new_dbg, new_index = apply_delta(index, delta)
        search = CommunitySearch(new_dbg, index=new_index)
        results = search.all_communities(["a", "b", "c"], 4.0)
        assert results
        assert any(3 in c.core for c in results)


class TestOnePostingStore:
    """Built, loaded and delta-maintained indexes share one posting
    store: a delta adds its recomputed keywords to a copy of the
    parent's dict and keeps reading the rest where the parent did."""

    def test_delta_keeps_edge_only_keywords(self, fig4):
        vocab = ["a", "b", "c", "zzabsent"]
        index = CommunityIndex.build(fig4, 5.0, keywords=vocab)
        assert index.edge_index.keywords() == vocab
        delta = GraphDelta(new_nodes=[({"newword"}, "n13", None)])
        new_dbg, updated = apply_delta(index, delta)
        assert updated.edge_index.keywords() \
            == ["a", "b", "c", "newword", "zzabsent"]
        assert updated.edge_index.edges("zzabsent") == []
        rebuilt = CommunityIndex.build(new_dbg, 5.0, keywords=vocab)
        assert "zzabsent" in rebuilt.edge_index

    def test_loaded_and_built_indexes_update_alike(self, fig4,
                                                   tmp_path):
        built = CommunityIndex.build(fig4, 5.0)
        write_snapshot(tmp_path / "s", fig4, built)
        loaded = load_snapshot(tmp_path / "s").index
        # Node 13 carries "newword" and links into node 2 (keyword c),
        # which reaches nothing: a and b stay unaffected.
        delta = GraphDelta(new_nodes=[({"newword"}, "n13", None)],
                           new_edges=[(13, 2, 1.0), (2, 13, 1.0)])
        new_dbg, heads = extend_database_graph(loaded.dbg, delta)
        recomputed = affected_keywords(new_dbg, delta, heads, 5.0)
        assert recomputed == {"c", "newword"}
        from_loaded = update_index(loaded, new_dbg, delta, heads)
        for store, parent in (
                (from_loaded.node_index, loaded.node_index),
                (from_loaded.edge_index, loaded.edge_index)):
            assert set(store._postings) == recomputed
            assert store._columns is parent._columns
        _, from_built = apply_delta(built, delta)
        for ours, theirs in (
                (from_loaded.node_index, from_built.node_index),
                (from_loaded.edge_index, from_built.edge_index)):
            assert ours.keywords() == theirs.keywords()
            assert ours.entry_count() == theirs.entry_count()
        for kw in from_built.node_index.keywords():
            assert from_loaded.nodes(kw) == from_built.nodes(kw)
        for kw in from_built.edge_index.keywords():
            assert from_loaded.edges(kw) == from_built.edges(kw)
