"""Snapshot I/O edge cases: versioning, empty graphs, unicode, exact
float weights."""

import json

import pytest

from repro.exceptions import SnapshotFormatError, SnapshotVersionError
from repro.graph.database_graph import DatabaseGraph
from repro.graph.digraph import DiGraph
from repro.snapshot import (
    MANIFEST_NAME,
    SnapshotStore,
    load_snapshot,
    write_snapshot,
)
from repro.text.inverted_index import CommunityIndex


def _bump_version(snap_dir):
    """Rewrite the manifest as a future format version would."""
    path = snap_dir / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    manifest["version"] = 999
    path.write_text(json.dumps(manifest))
    return manifest


class TestVersioning:
    def test_graph_version_mismatch_rejected(self, tmp_path, fig4):
        write_snapshot(tmp_path / "g", fig4)
        _bump_version(tmp_path / "g")
        with pytest.raises(SnapshotVersionError, match="999"):
            load_snapshot(tmp_path / "g")

    def test_index_version_mismatch_rejected(self, tmp_path, fig4):
        """A graph-plus-index snapshot of another version is refused
        at load and when offered to a store for ingest."""
        write_snapshot(tmp_path / "i", fig4,
                       CommunityIndex.build(fig4, radius=3.0))
        manifest = _bump_version(tmp_path / "i")
        with pytest.raises(SnapshotVersionError):
            load_snapshot(tmp_path / "i")
        with pytest.raises(SnapshotFormatError, match="version"):
            SnapshotStore(tmp_path / "store").ingest(manifest)


class TestDegenerateContent:
    def test_empty_graph_round_trip(self, tmp_path):
        dbg = DatabaseGraph(DiGraph(0).compile(), [])
        write_snapshot(tmp_path / "s", dbg)
        loaded = load_snapshot(tmp_path / "s").dbg
        assert loaded.n == 0 and loaded.m == 0

    def test_unicode_labels_survive(self, tmp_path):
        g = DiGraph(2)
        g.add_edge(0, 1, 1.0)
        dbg = DatabaseGraph(g.compile(), [{"a"}, set()],
                            ["Müller, José", "論文 №1"])
        write_snapshot(tmp_path / "s", dbg)
        loaded = load_snapshot(tmp_path / "s").dbg
        assert loaded.label_of(0) == "Müller, José"
        assert loaded.label_of(1) == "論文 №1"

    def test_empty_index_round_trip(self, tmp_path):
        dbg = DatabaseGraph(DiGraph(1).compile(), [set()])
        write_snapshot(tmp_path / "s", dbg,
                       CommunityIndex.build(dbg, radius=3.0))
        loaded = load_snapshot(tmp_path / "s").index
        assert loaded.nodes("anything") == []
        assert loaded.radius == 3.0

    def test_float_weights_precision(self, tmp_path):
        g = DiGraph(3)
        g.add_edge(0, 1, 0.1)
        g.add_edge(1, 2, 1.0 / 3.0)
        g.add_edge(2, 0, 1.0 + 2.0 ** -40)
        dbg = DatabaseGraph(g.compile(), [{"a"}, {"b"}, set()])
        write_snapshot(tmp_path / "s", dbg)
        loaded = load_snapshot(tmp_path / "s").dbg
        for (u1, v1, w1), (u2, v2, w2) in zip(
                sorted(dbg.graph.edges()),
                sorted(loaded.graph.edges())):
            assert (u1, v1) == (u2, v2)
            assert w1 == w2  # exact, not approximate
