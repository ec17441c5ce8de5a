"""Unit tests for the mapped snapshot load.

Every snapshot loads as read-only array views over memory-mapped
section files, so N workers share one physical copy of the index.
These tests pin down view immutability, the lazy metadata decode, the
engine/CLI plumbing, the refusal of gzip-compressed artifacts, and the
loader's posting validation (NaN / negative edge weights, out-of-range
node and edge postings).
"""

import gzip
import hashlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.engine import QueryEngine
from repro.engine.spec import QuerySpec
from repro.exceptions import SnapshotFormatError, SnapshotIntegrityError
from repro.graph.database_graph import LazyDatabaseGraph
from repro.snapshot import MANIFEST_NAME, load_snapshot, write_snapshot
from repro.text.inverted_index import CommunityIndex


@pytest.fixture()
def fig4_index(fig4):
    return CommunityIndex.build(fig4, FIG4_RMAX)


@pytest.fixture()
def snap_dir(fig4, fig4_index, tmp_path):
    """A fig4 snapshot directory."""
    write_snapshot(tmp_path / "s", fig4, fig4_index)
    return tmp_path / "s"


@pytest.fixture()
def gzip_snap_dir(snap_dir):
    """The fig4 snapshot rewritten in an earlier release's at-rest
    gzip layout: every section stored as ``<file>.gz`` and flagged
    ``"gzip": true``, checksums still over the uncompressed bytes."""
    manifest_path = snap_dir / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["sections"].values():
        plain = snap_dir / entry["file"]
        entry["file"] += ".gz"
        entry["gzip"] = True
        (snap_dir / entry["file"]).write_bytes(
            gzip.compress(plain.read_bytes(), mtime=0))
        plain.unlink()
    manifest_path.write_text(json.dumps(manifest))
    return snap_dir


class TestModes:
    def test_unknown_mode_rejected(self, snap_dir):
        """``from_snapshot`` keeps accepting ``mode="mmap"`` only."""
        QueryEngine.from_snapshot(snap_dir, mode="mmap")
        for mode in ("copy", "auto", "turbo"):
            with pytest.raises(ValueError, match="snapshot mode"):
                QueryEngine.from_snapshot(snap_dir, mode=mode)

    def test_mmap_on_gzip_is_a_typed_format_error(self,
                                                  gzip_snap_dir):
        """A compressed section cannot be mapped, and no other load
        path exists: the loader refuses the artifact with a typed
        error naming the compressed sections."""
        with pytest.raises(SnapshotFormatError,
                           match="gzip.*graph, index, nodes, postings"):
            load_snapshot(gzip_snap_dir)
        with pytest.raises(SnapshotFormatError, match="rebuild"):
            QueryEngine.from_snapshot(gzip_snap_dir)

    def test_mmap_round_trips_content(self, fig4, fig4_index,
                                      snap_dir):
        loaded = load_snapshot(snap_dir)
        assert loaded.dbg.n == fig4.n and loaded.dbg.m == fig4.m
        assert list(loaded.dbg.graph.edges()) \
            == list(fig4.graph.edges())
        for u in range(fig4.n):
            assert loaded.dbg.keywords_of(u) == fig4.keywords_of(u)
            assert loaded.dbg.label_of(u) == fig4.label_of(u)
            assert loaded.dbg.provenance_of(u) \
                == fig4.provenance_of(u)
        index = loaded.index
        assert index.radius == fig4_index.radius
        assert index.node_index.keywords() \
            == fig4_index.node_index.keywords()
        for kw in fig4_index.node_index.keywords():
            assert index.node_index.nodes(kw) \
                == fig4_index.node_index.nodes(kw)
        for kw in fig4_index.edge_index.keywords():
            assert index.edge_index.edges(kw) \
                == fig4_index.edge_index.edges(kw)

    def test_mmap_uses_array_backed_classes(self, snap_dir):
        loaded = load_snapshot(snap_dir)
        assert isinstance(loaded.dbg, LazyDatabaseGraph)
        assert not loaded.index.node_index._postings \
            and not loaded.index.node_index._columns._memo
        assert not loaded.index.edge_index._postings \
            and not loaded.index.edge_index._columns._memo


class TestReadOnlyViews:
    def test_graph_views_reject_mutation(self, snap_dir):
        graph = load_snapshot(snap_dir).dbg.graph
        for arr in (graph.forward.indptr, graph.forward.targets,
                    graph.forward.weights):
            arr = np.asarray(arr)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_postings_decode_to_plain_python(self, snap_dir):
        index = load_snapshot(snap_dir).index
        for kw in index.node_index.keywords():
            nodes = index.node_index.nodes(kw)
            assert all(type(u) is int for u in nodes)
        for kw in index.edge_index.keywords():
            for u, v, w in index.edge_index.edges(kw):
                assert type(u) is int and type(v) is int \
                    and type(w) is float
        # ... so answers built from them are JSON-serializable.
        json.dumps({"n": index.node_index.nodes(kw),
                    "e": index.edge_index.edges(kw)})

    def test_node_metadata_parse_is_deferred(self, snap_dir):
        dbg = load_snapshot(snap_dir).dbg
        assert dbg._payload is None        # spawn paid no JSON parse
        dbg.label_of(0)
        assert dbg._payload is not None    # first access paid it once


class TestQueryEquivalence:
    """An engine over the mapped snapshot answers exactly like one
    over the in-memory graph and index the snapshot was written
    from (the Hypothesis version is in ``test_mmap_props``)."""

    def test_comm_all_identical_across_modes(self, fig4, fig4_index,
                                             snap_dir):
        spec = QuerySpec(tuple(FIG4_QUERY), FIG4_RMAX, mode="all")
        in_memory = QueryEngine(fig4, fig4_index)
        mapped = QueryEngine.from_snapshot(snap_dir)
        key = [(c.core, c.cost, c.nodes, c.edges, c.centers)
               for c in in_memory.run_all(spec)]
        assert key == [(c.core, c.cost, c.nodes, c.edges, c.centers)
                       for c in mapped.run_all(spec)]

    def test_pdk_stream_identical_across_modes(self, fig4, fig4_index,
                                               snap_dir):
        in_memory = QueryEngine(fig4, fig4_index)
        mapped = QueryEngine.from_snapshot(snap_dir)
        a = in_memory.top_k_stream(list(FIG4_QUERY),
                                   FIG4_RMAX).take(3)
        b = mapped.top_k_stream(list(FIG4_QUERY), FIG4_RMAX).take(3)
        assert [(c.core, c.cost, c.nodes) for c in a] \
            == [(c.core, c.cost, c.nodes) for c in b]
        assert [c.cost for c in b] == [7.0, 10.0, 11.0]


class TestEnginePlumbing:
    def test_reload_stays_mapped(self, fig4, snap_dir, tmp_path):
        engine = QueryEngine.from_snapshot(snap_dir)
        nxt = write_snapshot(tmp_path / "next", fig4,
                             CommunityIndex.build(fig4, FIG4_RMAX + 1))
        engine.load_snapshot(tmp_path / "next")
        assert engine.generation == nxt.id
        assert isinstance(engine.dbg, LazyDatabaseGraph)
        assert not np.asarray(
            engine.dbg.graph.forward.targets).flags.writeable
        answers = engine.top_k_stream(list(FIG4_QUERY),
                                      FIG4_RMAX).take(3)
        assert [c.cost for c in answers] == [7.0, 10.0, 11.0]


def _rewrite_postings(snap_dir, patch):
    """Apply ``patch(node_flat, edge_u, edge_v, edge_w)`` to writable
    copies of the posting columns, rewrite ``postings.bin`` and fix
    its manifest checksum — damage that checksums clean."""
    directory = json.loads((snap_dir / "index.json").read_text())
    nodes = sum(directory["node_counts"])
    edges = sum(directory["edge_counts"])
    raw = (snap_dir / "postings.bin").read_bytes()
    ints = np.frombuffer(raw, dtype="<i8",
                         count=nodes + 2 * edges).copy()
    weights = np.frombuffer(raw, dtype="<f8", count=edges,
                            offset=8 * (nodes + 2 * edges)).copy()
    patch(ints[:nodes], ints[nodes:nodes + edges],
          ints[nodes + edges:], weights)
    data = ints.tobytes() + weights.tobytes()
    (snap_dir / "postings.bin").write_bytes(data)
    manifest_path = snap_dir / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["sections"]["postings"]["sha256"] = \
        hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


class TestCodecValidation:
    """The loader range-checks every posting column at load, with
    vectorised ``min``/``max`` over the mapped arrays."""

    def _assert_rejected(self, snap_dir, patch, match):
        _rewrite_postings(snap_dir, patch)
        with pytest.raises(SnapshotIntegrityError, match=match):
            load_snapshot(snap_dir)

    def test_round_trip_is_clean(self, snap_dir):
        _rewrite_postings(snap_dir, lambda *columns: None)
        engine = QueryEngine.from_snapshot(snap_dir)
        answers = engine.top_k_stream(list(FIG4_QUERY),
                                      FIG4_RMAX).take(3)
        assert [c.cost for c in answers] == [7.0, 10.0, 11.0]

    def test_nan_edge_weight_rejected(self, snap_dir):
        def patch(nodes, us, vs, ws):
            ws[0] = float("nan")
        self._assert_rejected(snap_dir, patch, "NaN")

    def test_negative_edge_weight_rejected(self, snap_dir):
        def patch(nodes, us, vs, ws):
            ws[0] = -1.0
        self._assert_rejected(snap_dir, patch, "negative")

    @pytest.mark.parametrize("column", ("u", "v"))
    def test_out_of_range_edge_endpoint_rejected(self, fig4, snap_dir,
                                                 column):
        def patch(nodes, us, vs, ws):
            (us if column == "u" else vs)[0] = fig4.n
        self._assert_rejected(snap_dir, patch, "outside")

    def test_out_of_range_node_posting_rejected(self, fig4,
                                                snap_dir):
        def patch(nodes, us, vs, ws):
            nodes[0] = fig4.n
        self._assert_rejected(snap_dir, patch, "outside")

    def test_negative_node_posting_rejected(self, snap_dir):
        def patch(nodes, us, vs, ws):
            nodes[0] = -1
        self._assert_rejected(snap_dir, patch, "outside")


class TestOwnedSection:
    """The loader range-checks a shard's ``owned`` section: sorted,
    duplicate-free, every id a node of the bundled graph."""

    @staticmethod
    def _with_owned(fig4, tmp_path, ids):
        """A snapshot whose ``owned.bin`` holds ``ids`` as written,
        its checksum fixed up — damage that checksums clean."""
        snap = write_snapshot(tmp_path / "s", fig4,
                              CommunityIndex.build(fig4, FIG4_RMAX),
                              owned=[0])
        data = np.asarray(ids, dtype="<i8").tobytes()
        (snap.path / "owned.bin").write_bytes(data)
        manifest_path = snap.path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["sections"]["owned"].update(
            bytes=len(data), sha256=hashlib.sha256(data).hexdigest())
        manifest_path.write_text(json.dumps(manifest))
        return snap.path

    def test_round_trip_is_clean(self, fig4, tmp_path):
        path = self._with_owned(fig4, tmp_path, [0, 4, fig4.n - 1])
        assert load_snapshot(path).owned.tolist() == [0, 4, fig4.n - 1]

    @pytest.mark.parametrize("ids", [
        [3, 1],                  # unsorted
        [2, 2],                  # duplicate
        [-1, 0],                 # negative
        [0, 13],                 # fig4 has nodes 0..12
    ], ids=["unsorted", "duplicate", "negative", "out-of-range"])
    def test_bad_owned_ids_rejected(self, fig4, tmp_path, ids):
        path = self._with_owned(fig4, tmp_path, ids)
        with pytest.raises(SnapshotIntegrityError, match="owned"):
            load_snapshot(path)


class TestInspectCli:
    def test_json_prints_the_raw_manifest(self, snap_dir, capsys):
        assert main(["snapshot", "inspect", str(snap_dir),
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out) \
            == json.loads((snap_dir / MANIFEST_NAME).read_text())

    def test_text_reports_bytes_and_mappability(self, snap_dir,
                                                capsys):
        assert main(["snapshot", "inspect", str(snap_dir)]) == 0
        out = capsys.readouterr().out
        total = sum(section["bytes"] for section in json.loads(
            (snap_dir / MANIFEST_NAME).read_text())["sections"].values())
        assert f"mapped     {total} bytes, shareable across " \
            f"workers" in out
