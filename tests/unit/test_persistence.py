"""Unit tests for graph and index persistence.

A graph and its index persist as one snapshot: publish it into a
:class:`~repro.snapshot.SnapshotStore`, load it back with
:func:`~repro.snapshot.load_snapshot`. These tests pin down what a
reload preserves and what it refuses.
"""

import pytest

from repro.core import top_k
from repro.core.search import CommunitySearch
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.exceptions import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
)
from repro.graph.database_graph import DatabaseGraph
from repro.graph.digraph import DiGraph
from repro.snapshot import SnapshotStore, load_snapshot
from repro.text.inverted_index import CommunityIndex


def _reload(tmp_path, dbg, index=None):
    """Publish ``dbg`` (and ``index``) to a store and load it back."""
    store = SnapshotStore(tmp_path / "store")
    store.publish(dbg, index)
    return load_snapshot(store.resolve("latest"))


class TestGraphRoundTrip:
    def test_round_trip_plain(self, fig4, tmp_path):
        loaded = _reload(tmp_path, fig4).dbg
        assert loaded.n == fig4.n and loaded.m == fig4.m
        assert sorted(loaded.graph.edges()) \
            == sorted(fig4.graph.edges())
        for u in range(fig4.n):
            assert loaded.keywords_of(u) == fig4.keywords_of(u)
            assert loaded.label_of(u) == fig4.label_of(u)

    def test_composite_pk_provenance_restored(self, tiny_dblp,
                                              tmp_path):
        _, dbg = tiny_dblp
        loaded = _reload(tmp_path, dbg).dbg
        restored = [loaded.provenance_of(u) for u in range(loaded.n)]
        original = [dbg.provenance_of(u) for u in range(dbg.n)]
        assert restored == original  # tuples, not lists
        assert any(isinstance(p[1], tuple) for p in original
                   if p is not None)

    def test_queries_identical_after_reload(self, fig4, tmp_path):
        loaded = _reload(tmp_path, fig4).dbg
        before = top_k(fig4, list(FIG4_QUERY), 5, FIG4_RMAX)
        after = top_k(loaded, list(FIG4_QUERY), 5, FIG4_RMAX)
        assert [(c.core, c.cost) for c in before] \
            == [(c.core, c.cost) for c in after]

    def test_rejects_foreign_file(self, tmp_path):
        """A file that is not a snapshot directory (say, a graph file
        from some other tool) fails with a typed snapshot error."""
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(SnapshotError):
            load_snapshot(path)


class TestIndexRoundTrip:
    def test_round_trip(self, fig4, tmp_path):
        index = CommunityIndex.build(fig4, radius=FIG4_RMAX)
        loaded = _reload(tmp_path, fig4, index).index
        assert loaded.radius == index.radius
        for kw in index.node_index.keywords():
            assert loaded.nodes(kw) == index.nodes(kw)
            assert loaded.edges(kw) == index.edges(kw)

    def test_queries_identical_with_loaded_index(self, fig4, tmp_path):
        index = CommunityIndex.build(fig4, radius=FIG4_RMAX)
        loaded = _reload(tmp_path, fig4, index).index
        search = CommunitySearch(fig4, index=loaded)
        results = search.top_k(list(FIG4_QUERY), 5, FIG4_RMAX)
        assert [c.cost for c in results] == [7.0, 10.0, 11.0, 14.0,
                                             15.0]

    def test_wrong_graph_rejected(self, fig4, tmp_path):
        """An index persisted with a graph it was not built over fails
        at load: its postings name nodes the bundled graph lacks."""
        index = CommunityIndex.build(fig4, radius=FIG4_RMAX)
        small = DatabaseGraph(DiGraph(2).compile(), [set(), set()])
        with pytest.raises(SnapshotIntegrityError, match="outside"):
            _reload(tmp_path, small, index)

    def test_rejects_foreign_file(self, tmp_path):
        """A manifest of another format offered to a store is refused
        before anything is staged."""
        store = SnapshotStore(tmp_path / "store")
        with pytest.raises(SnapshotFormatError):
            store.ingest({"format": "nope"})
        assert list(store.root.iterdir()) == []
