"""The immutable snapshot artifact: one directory from build to serve.

A **snapshot** is the unit a deployment ships: the database graph
``G_D``, its :class:`~repro.text.inverted_index.CommunityIndex` (the
paper's two inverted indexes, built once — 355 s for DBLP in Section
VI) and the keyword vocabulary, bundled under a content manifest so a
worker's startup is a checksum-verified *load* instead of a rebuild.

On-disk layout (one directory per snapshot)::

    <dir>/
      manifest.json        format, version, id, created_at, build
                           seconds, counts, build provenance,
                           per-section SHA-256
      graph.bin            forward CSR: indptr | targets | weights
      nodes.json           labels, provenance, vocab, per-node
                           keyword ids
      index.json           radius, posting directory
      postings.bin         node postings | edge (u | v | w) columns
      owned.bin            optional: the sorted ids of the nodes
                           one shard owns (shard snapshots)

Binary sections are little-endian ``int64``/``float64`` columns.
:func:`load_snapshot` maps every section read-only and wraps the
columns in ``np.frombuffer`` views, so the forward CSR and the posting
columns *are* the mapped pages, shared through the page cache by
every process serving the same artifact; only the reverse CSR is
derived (:meth:`~repro.graph.csr.CompiledGraph.from_csr_arrays`), and
``nodes.json`` is parsed on first metadata access. Both inverted
indexes read their postings out of the mapped columns
(:class:`~repro.text.inverted_index.PostingColumns`), decoding a
keyword on first use, and an index updated by a delta keeps reading
its unchanged keywords there. Manifests written by earlier releases
may flag gzip-compressed sections; those cannot be mapped and are
refused with a typed error telling the operator to rebuild. Their
``index.json`` may carry the build time, which still loads.

The snapshot **id** (``sn-`` + 12 hex chars) digests every section,
and only the sections: the manifest's ``created_at`` and build time
stay out of it, so two builds of the same data publish one id. That
gives the engine a durable cache-invalidation generation: two
workers loading the same snapshot agree on the id, and republishing
identical content republishes the same snapshot. That includes the
``owned`` section a partition run writes into each shard snapshot
(:mod:`repro.shard.partition`): the same graph and index published
with two different owned sets are two snapshots, so every cache keyed
by the generation already covers the owner restriction.

A section file is written once, in staging, and never written again
after publish. That lets :func:`write_snapshot` hard-link the files
of the snapshot a loaded graph is mapped from for every section it
would reproduce byte for byte: a shard snapshot is its base's files
plus its own ``owned.bin``, and processes serving shards of one fleet
share the base's pages.

Errors follow the taxonomy in :mod:`repro.exceptions`:
:class:`~repro.exceptions.SnapshotNotFoundError` (nothing there),
:class:`~repro.exceptions.SnapshotFormatError` /
:class:`~repro.exceptions.SnapshotVersionError` (not a readable
snapshot) and :class:`~repro.exceptions.SnapshotIntegrityError`
(damaged payload: bad checksum, truncation, undecodable section).
"""

from __future__ import annotations

import datetime
import hashlib
import json
import mmap as _mmap
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.exceptions import (
    GraphError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    SnapshotVersionError,
)
from repro.graph.csr import CompiledGraph
from repro.graph.database_graph import DatabaseGraph, LazyDatabaseGraph
from repro.snapshot.codec import decode_provenance, encode_provenance
from repro.text.inverted_index import (
    CommunityIndex,
    EdgeInvertedIndex,
    NodeInvertedIndex,
    PostingColumns,
)

FORMAT_NAME = "repro.snapshot"
FORMAT_VERSION = 1

#: The manifest file name inside a snapshot directory.
MANIFEST_NAME = "manifest.json"

PathLike = Union[str, Path]

_INT = np.dtype("<i8")
_FLOAT = np.dtype("<f8")


def _utcnow() -> str:
    """The current UTC time as an ISO-8601 string.

    Microsecond precision: the store orders snapshots by
    ``created_at``, and two publishes can land within one second.
    """
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S.%fZ")


def _json_bytes(payload: Dict[str, Any]) -> bytes:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")


class Snapshot:
    """One loaded (or just-written) snapshot artifact.

    Bundles the manifest with the
    :class:`~repro.graph.database_graph.DatabaseGraph` and (when the
    snapshot carries one) the
    :class:`~repro.text.inverted_index.CommunityIndex`, plus the path
    it lives at. A loaded snapshot's graph and index are read-only
    views over the mapped sections; a just-written one wraps the
    in-memory objects it was built from.
    """

    def __init__(self, path: Path, manifest: Dict[str, Any],
                 dbg: DatabaseGraph,
                 index: Optional[CommunityIndex],
                 owned: Optional[np.ndarray] = None) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self.dbg = dbg
        self.index = index
        #: Sorted ids of the nodes this shard owns, from the
        #: ``owned`` section; ``None`` for a whole (unpartitioned)
        #: snapshot.
        self.owned = owned

    @property
    def id(self) -> str:
        """Content-derived snapshot id (``sn-`` + 12 hex chars)."""
        return self.manifest["id"]

    @property
    def created_at(self) -> str:
        """ISO-8601 UTC build time (informational, not hashed)."""
        return self.manifest["created_at"]

    @property
    def provenance(self) -> Dict[str, Any]:
        """Free-form build provenance (dataset, radius, builder...)."""
        return self.manifest.get("provenance", {})

    @property
    def counts(self) -> Dict[str, int]:
        """Node/edge/vocabulary/posting counts from the manifest."""
        return self.manifest["counts"]

    @property
    def radius(self) -> Optional[float]:
        """The bundled index's radius ``R`` (``None`` if no index)."""
        if self.index is None:
            return None
        return self.index.radius

    def __repr__(self) -> str:
        return (f"Snapshot(id={self.id!r}, nodes="
                f"{self.counts['nodes']}, edges={self.counts['edges']}"
                f", index={self.index is not None})")


# ----------------------------------------------------------------------
# section encoders
# ----------------------------------------------------------------------
def _graph_section(dbg: DatabaseGraph) -> bytes:
    """Forward CSR as ``indptr | targets | weights`` columns."""
    forward = dbg.graph.forward
    return b"".join((
        np.asarray(forward.indptr, dtype=_INT).tobytes(),
        np.asarray(forward.targets, dtype=_INT).tobytes(),
        np.asarray(forward.weights, dtype=_FLOAT).tobytes(),
    ))


def _nodes_section(dbg: DatabaseGraph, vocab: List[str]) -> bytes:
    """Labels, provenance, vocabulary and per-node keyword ids."""
    vocab_ids = {kw: i for i, kw in enumerate(vocab)}
    return _json_bytes({
        "labels": [dbg.label_of(u) for u in range(dbg.n)],
        "provenance": [encode_provenance(dbg.provenance_of(u))
                       for u in range(dbg.n)],
        "vocab": vocab,
        "node_keywords": [
            sorted(vocab_ids[kw] for kw in dbg.keywords_of(u))
            for u in range(dbg.n)],
    })


def _index_sections(index: CommunityIndex,
                    vocab: List[str]) -> Dict[str, bytes]:
    """The index directory (JSON) plus the postings columns (binary).

    Keyword membership is stored separately per inverted index — a
    keyword may appear in only one of the two maps (e.g. an explicit
    build vocabulary containing a word absent from the graph), and an
    *empty* posting list is distinct from an absent keyword. A
    keyword whose postings still sit in mapped columns (a loaded
    snapshot's, or its delta-updated copy's untouched keywords) is
    written as slices of those columns, never decoded into Python.
    """
    vocab_ids = {kw: i for i, kw in enumerate(vocab)}
    node_kws = index.node_index.keywords()
    edge_kws = index.edge_index.keywords()
    parts: List[bytes] = []
    node_counts: List[int] = []
    for kw in node_kws:
        run = index.node_index.run(kw)
        nodes = run[0] if run is not None else index.node_index.nodes(kw)
        node_counts.append(len(nodes))
        parts.append(np.asarray(nodes, dtype=_INT).tobytes())
    edge_counts: List[int] = []
    edge_u: List[bytes] = []
    edge_v: List[bytes] = []
    edge_w: List[bytes] = []
    for kw in edge_kws:
        run = index.edge_index.run(kw)
        if run is None:
            edges = index.edge_index.edges(kw)
            run = [np.fromiter((e[i] for e in edges), dtype=dtype,
                               count=len(edges))
                   for i, dtype in enumerate((_INT, _INT, _FLOAT))]
        us, vs, ws = run
        edge_counts.append(len(us))
        edge_u.append(np.asarray(us, dtype=_INT).tobytes())
        edge_v.append(np.asarray(vs, dtype=_INT).tobytes())
        edge_w.append(np.asarray(ws, dtype=_FLOAT).tobytes())
    directory = _json_bytes({
        "radius": index.radius,
        "node_keywords": [vocab_ids[kw] for kw in node_kws],
        "node_counts": node_counts,
        "edge_keywords": [vocab_ids[kw] for kw in edge_kws],
        "edge_counts": edge_counts,
    })
    postings = b"".join(parts) + b"".join(edge_u) \
        + b"".join(edge_v) + b"".join(edge_w)
    return {"index": directory, "postings": postings}


def snapshot_vocab(dbg: DatabaseGraph,
                   index: Optional[CommunityIndex]) -> List[str]:
    """The snapshot's keyword vocabulary, sorted.

    The graph vocabulary unioned with both posting maps' keyword sets
    (an index built over an explicit word list may reference keywords
    no node carries).
    """
    vocab = set(dbg.vocabulary())
    if index is not None:
        vocab.update(index.node_index.keywords())
        vocab.update(index.edge_index.keywords())
    return sorted(vocab)


# ----------------------------------------------------------------------
# write
# ----------------------------------------------------------------------
def _base_sections(origin: Optional[Path]) -> Dict[str, Dict[str, Any]]:
    """The section table of the snapshot at ``origin`` (empty when
    there is none, or it is gone)."""
    if origin is None:
        return {}
    try:
        return read_manifest(origin)["sections"]
    except SnapshotError:
        return {}


def _link(source: Path, target: Path) -> bool:
    """Hard-link ``source`` as ``target``; ``False`` where that fails."""
    try:
        os.link(source, target)
    except OSError:
        return False
    return True


def write_snapshot(path: PathLike, dbg: DatabaseGraph,
                   index: Optional[CommunityIndex] = None,
                   provenance: Optional[Dict[str, Any]] = None,
                   owned: Optional[Sequence[int]] = None
                   ) -> Snapshot:
    """Write one snapshot directory at ``path`` and return it.

    ``path`` must not already contain a snapshot (publishing with
    overwrite/atomicity semantics is
    :meth:`repro.snapshot.store.SnapshotStore.publish`'s job).
    ``owned`` (the ids of the nodes a shard owns) adds the ``owned``
    section, stored sorted and duplicate-free.

    A section whose SHA-256 equals the same section of the snapshot
    ``dbg`` is mapped from (its :attr:`~repro.graph.database_graph.
    DatabaseGraph.origin`) is hard-linked from that snapshot instead
    of written, so a shard snapshot shares every section but
    ``owned`` with its base. Where the link fails (another
    filesystem, a base pruned since it was loaded) the bytes are
    written.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    if (path / MANIFEST_NAME).exists():
        raise SnapshotFormatError(
            f"{path} already holds a snapshot; write to a fresh "
            f"directory (or publish through a SnapshotStore)")

    vocab = snapshot_vocab(dbg, index)
    payloads: Dict[str, bytes] = {
        "graph": _graph_section(dbg),
        "nodes": _nodes_section(dbg, vocab),
    }
    if index is not None:
        payloads.update(_index_sections(index, vocab))
    owned_ids = None
    if owned is not None:
        owned_ids = np.unique(np.asarray(owned, dtype=_INT))
        payloads["owned"] = owned_ids.tobytes()

    base = _base_sections(dbg.origin)
    sections: Dict[str, Dict[str, Any]] = {}
    digest = hashlib.sha256()
    digest.update(f"{FORMAT_NAME}:{FORMAT_VERSION}".encode())
    for name in sorted(payloads):
        data = payloads[name]
        sha = hashlib.sha256(data).hexdigest()
        digest.update(name.encode())
        digest.update(sha.encode())
        suffix = ".json" if name in ("nodes", "index") else ".bin"
        filename = f"{name}{suffix}"
        shared = base.get(name)
        if shared is None or shared["sha256"] != sha \
                or not _link(dbg.origin / shared["file"],
                             path / filename):
            (path / filename).write_bytes(data)
        sections[name] = {
            "file": filename,
            "sha256": sha,
            "bytes": len(data),
        }

    counts = {
        "nodes": dbg.n,
        "edges": dbg.m,
        "vocab": len(vocab),
        "node_postings": (index.node_index.entry_count()
                          if index is not None else 0),
        "edge_postings": (index.edge_index.entry_count()
                          if index is not None else 0),
    }
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "id": f"sn-{digest.hexdigest()[:12]}",
        "created_at": _utcnow(),
        "build_seconds": (index.build_seconds
                          if index is not None else None),
        "provenance": dict(provenance or {}),
        "has_index": index is not None,
        "counts": counts,
        "sections": sections,
    }
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return Snapshot(path, manifest, dbg, index, owned_ids)


# ----------------------------------------------------------------------
# read
# ----------------------------------------------------------------------
def read_manifest(path: PathLike) -> Dict[str, Any]:
    """The manifest of the snapshot at ``path``, header-checked."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise SnapshotNotFoundError(f"no snapshot at {path} "
                                    f"(missing {MANIFEST_NAME})")
    try:
        manifest = json.loads(manifest_path.read_text(
            encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SnapshotFormatError(
            f"unreadable snapshot manifest {manifest_path}: "
            f"{exc}") from exc
    if not isinstance(manifest, dict) \
            or manifest.get("format") != FORMAT_NAME:
        raise SnapshotFormatError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest")
    if manifest.get("version") != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"unsupported snapshot version "
            f"{manifest.get('version')!r} (expected {FORMAT_VERSION})")
    return manifest


def require_uncompressed(manifest: Dict[str, Any]) -> None:
    """Refuse a manifest that flags gzip-compressed sections.

    Earlier releases could gzip sections at rest. A compressed
    section cannot be mapped, and snapshots have one load path, so
    such an artifact fails with
    :class:`~repro.exceptions.SnapshotFormatError` — at load and when
    a cross-box ingest begins — telling the operator to rebuild.
    """
    packed = sorted(name for name, entry
                    in (manifest.get("sections") or {}).items()
                    if entry.get("gzip"))
    if packed:
        raise SnapshotFormatError(
            f"snapshot {manifest.get('id')} has gzip-compressed "
            f"sections ({', '.join(packed)}), which are no longer "
            f"supported; rebuild it with 'python -m repro snapshot "
            f"build' (or republish it through SnapshotStore.publish)")


def _split(data: bytes, *specs) -> List[np.ndarray]:
    """Slice concatenated columns ``(dtype, count)`` out of ``data``."""
    arrays: List[np.ndarray] = []
    offset = 0
    for dtype, count in specs:
        size = dtype.itemsize * count
        if offset + size > len(data):
            raise SnapshotIntegrityError(
                "snapshot binary section is shorter than its "
                "manifest counts imply")
        arrays.append(np.frombuffer(data, dtype=dtype, count=count,
                                    offset=offset))
        offset += size
    if offset != len(data):
        raise SnapshotIntegrityError(
            "snapshot binary section has trailing bytes beyond its "
            "manifest counts")
    return arrays


def _map_section(path: Path, manifest: Dict[str, Any], name: str,
                 verify: bool):
    """One section as a read-only mapped buffer, checksum-checked.

    Returns an ``mmap.mmap`` (or ``b""`` for an empty section) whose
    pages every process mapping the same file shares through the page
    cache. With fault injection armed, the content is copied through
    :func:`repro.faults.corrupt` (the ``snapshot.section[.<name>]``
    sites) so chaos tests exercise the production detection path —
    checksum mismatch, typed integrity error — at the cost of the
    copy; production runs never take that branch.
    """
    entry = manifest["sections"].get(name)
    if entry is None:
        raise SnapshotFormatError(
            f"snapshot {manifest.get('id')} has no {name!r} section")
    section_path = path / entry["file"]
    if not section_path.is_file():
        raise SnapshotIntegrityError(
            f"snapshot section {section_path} is missing")
    if section_path.stat().st_size == 0:
        data = b""
    else:
        with open(section_path, "rb") as handle:
            data = _mmap.mmap(handle.fileno(), 0,
                              access=_mmap.ACCESS_READ)
    if faults.is_armed():
        data = faults.corrupt(f"snapshot.section.{name}",
                              faults.corrupt("snapshot.section",
                                             bytes(data)))
    if len(data) != entry["bytes"]:
        raise SnapshotIntegrityError(
            f"snapshot section {section_path} is truncated: "
            f"{len(data)} bytes, manifest says {entry['bytes']}")
    if verify:
        sha = hashlib.sha256(data).hexdigest()
        if sha != entry["sha256"]:
            raise SnapshotIntegrityError(
                f"snapshot section {section_path} failed its "
                f"checksum (sha256 {sha[:12]}..., manifest "
                f"{entry['sha256'][:12]}...)")
    return data


def _load_owned(path: Path, manifest: Dict[str, Any], n: int,
                verify: bool) -> Optional[np.ndarray]:
    """The ``owned`` section as a mapped id column, range-checked:
    sorted, duplicate-free, every id a node of the bundled graph.
    ``None`` when the snapshot has no such section."""
    if "owned" not in manifest["sections"]:
        return None
    buf = _map_section(path, manifest, "owned", verify)
    (owned,) = _split(buf, (_INT, len(buf) // _INT.itemsize))
    if len(owned) and (owned[0] < 0 or owned[-1] >= n
                       or not (np.diff(owned) > 0).all()):
        raise SnapshotIntegrityError(
            f"snapshot owned section is not a sorted, duplicate-free "
            f"list of node ids of the bundled graph (n={n})")
    return owned


def _load_mapped(path: Path, manifest: Dict[str, Any], verify: bool
                 ) -> Tuple[LazyDatabaseGraph,
                            Optional[CommunityIndex]]:
    """Open the snapshot as read-only views over mapped sections.

    The graph's forward CSR and the posting columns become
    ``np.frombuffer`` views of the mapped files — zero copies, shared
    page-cache pages across workers. Every column is range-checked
    with vectorised ``min``/``max`` here, at load; ``nodes.json`` is
    *not* parsed: its decode (plus per-node keyword/provenance
    materialization) happens lazily on first metadata access, which
    is what makes worker spawn O(ms), and that decode checks every
    keyword id against the vocabulary.
    """
    graph_buf = _map_section(path, manifest, "graph", verify)
    nodes_buf = _map_section(path, manifest, "nodes", verify)
    n = manifest["counts"]["nodes"]
    m = manifest["counts"]["edges"]
    indptr, targets, weights = _split(
        graph_buf, (_INT, n + 1), (_INT, m), (_FLOAT, m))
    try:
        graph = CompiledGraph.from_csr_arrays(n, indptr, targets,
                                              weights)
    except GraphError as exc:
        raise SnapshotIntegrityError(
            f"snapshot graph section is inconsistent: {exc}") from exc

    index_kw_ids: List[int] = []
    if manifest.get("has_index"):
        index_buf = _map_section(path, manifest, "index", verify)
        postings_buf = _map_section(path, manifest, "postings",
                                    verify)
        try:
            directory = json.loads(bytes(index_buf).decode("utf-8"))
            node_kw_ids = [int(i) for i in directory["node_keywords"]]
            edge_kw_ids = [int(i) for i in directory["edge_keywords"]]
            node_counts = [int(c) for c in directory["node_counts"]]
            edge_counts = [int(c) for c in directory["edge_counts"]]
            radius = float(directory["radius"])
            # Earlier releases kept the build time in index.json.
            build_seconds = float(manifest.get(
                "build_seconds", directory.get("build_seconds", 0.0)))
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotIntegrityError(
                f"snapshot index section is undecodable: "
                f"{exc}") from exc
        if len(node_counts) != len(node_kw_ids) \
                or len(edge_counts) != len(edge_kw_ids):
            raise SnapshotIntegrityError(
                "snapshot index directory counts do not align with "
                "its keyword lists")
        index_kw_ids = node_kw_ids + edge_kw_ids
        total_nodes = sum(node_counts)
        total_edges = sum(edge_counts)
        node_flat, edge_u, edge_v, edge_w = _split(
            postings_buf, (_INT, total_nodes), (_INT, total_edges),
            (_INT, total_edges), (_FLOAT, total_edges))
        if total_nodes and (node_flat.min() < 0
                            or node_flat.max() >= n):
            raise SnapshotIntegrityError(
                f"snapshot node posting references a node outside "
                f"the bundled graph (n={n})")
        if total_edges:
            if min(edge_u.min(), edge_v.min()) < 0 \
                    or max(edge_u.max(), edge_v.max()) >= n:
                raise SnapshotIntegrityError(
                    f"snapshot edge posting references a node "
                    f"outside the bundled graph (n={n})")
            if not edge_w.min() >= 0:  # catches negatives *and* NaN
                raise SnapshotIntegrityError(
                    "snapshot edge posting carries a negative or NaN "
                    "weight")

    payload_box: List[tuple] = []

    def nodes_payload() -> tuple:
        """Parse ``nodes.json`` once, shared by graph and indexes."""
        if not payload_box:
            try:
                nodes = json.loads(bytes(nodes_buf).decode("utf-8"))
                vocab = nodes["vocab"]
                node_kws = nodes["node_keywords"]
                labels = nodes["labels"]
                provenance = nodes["provenance"]
            except (ValueError, KeyError, TypeError) as exc:
                raise SnapshotIntegrityError(
                    f"snapshot nodes section is undecodable: "
                    f"{exc}") from exc
            if len(node_kws) != n or len(labels) != n \
                    or len(provenance) != n:
                raise SnapshotIntegrityError(
                    f"snapshot node sections disagree with the "
                    f"graph: {len(labels)} labels / {len(node_kws)} "
                    f"keyword lists / {len(provenance)} provenance "
                    f"entries for {n} nodes")
            vocab_size = len(vocab)
            if any(i < 0 or i >= vocab_size
                   for ids in (*node_kws, index_kw_ids) for i in ids):
                raise SnapshotIntegrityError(
                    "snapshot references a keyword id outside its "
                    "vocabulary")
            payload_box.append((vocab, node_kws, labels, provenance))
        return payload_box[0]

    def resolve_vocab() -> List[str]:
        return nodes_payload()[0]

    dbg = LazyDatabaseGraph(graph, nodes_payload, decode_provenance,
                            origin=path)
    index: Optional[CommunityIndex] = None
    if manifest.get("has_index"):
        index = CommunityIndex(
            dbg,
            NodeInvertedIndex({}, PostingColumns(
                node_kw_ids, node_counts, (node_flat,), resolve_vocab)),
            EdgeInvertedIndex({}, radius, PostingColumns(
                edge_kw_ids, edge_counts, (edge_u, edge_v, edge_w),
                resolve_vocab)),
            radius, build_seconds)
    return dbg, index


def load_snapshot(path: PathLike, verify: bool = True) -> Snapshot:
    """Load the snapshot directory at ``path``.

    Every section is mapped read-only and wrapped in array views (see
    the module docstring); query results equal those of the in-memory
    graph and index the snapshot was written from. With ``verify``
    (the default, and what every production path uses) each section's
    SHA-256 is recomputed over the mapped bytes before any view is
    handed out; a flipped byte anywhere raises
    :class:`~repro.exceptions.SnapshotIntegrityError`, as does a
    posting outside the graph, a negative or NaN edge weight, or an
    ``owned`` section that is unsorted, repeats an id or names a node
    outside the graph. A
    manifest flagging gzip-compressed sections raises
    :class:`~repro.exceptions.SnapshotFormatError` (see
    :func:`require_uncompressed`).
    """
    path = Path(path)
    faults.hit("snapshot.load")
    manifest = read_manifest(path)
    require_uncompressed(manifest)
    dbg, index = _load_mapped(path, manifest, verify)
    owned = _load_owned(path, manifest, manifest["counts"]["nodes"],
                        verify)
    return Snapshot(path, manifest, dbg, index, owned)


def verify_snapshot(path: PathLike) -> Dict[str, Any]:
    """Check every section checksum and decode every section.

    :func:`load_snapshot` defers the ``nodes.json`` parse to first
    metadata access; this forces it, so a section that checksums
    clean but does not decode (a keyword id outside the vocabulary,
    say) fails here rather than on some later query. Returns the
    manifest on success; raises the matching
    :class:`~repro.exceptions.SnapshotError` subclass otherwise.
    """
    snapshot = load_snapshot(path, verify=True)
    snapshot.dbg.decode()
    return snapshot.manifest
