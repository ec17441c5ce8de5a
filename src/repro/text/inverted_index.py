"""The paper's two inverted indexes: ``invertedN`` and ``invertedE``.

Section VI: for each keyword ``w``,

* ``invertedN[w]`` stores the nodes ``V_w`` containing ``w``;
* ``invertedE[w]`` stores the edges ``(u, v)`` such that *both*
  endpoints are within ``R`` of at least one node in ``V_w`` — where
  "within R" means the endpoint can *reach* a ``V_w`` node along a path
  of total weight ``<= R`` (centers and path nodes reach keyword nodes,
  per Definition 2.1), computed with one bounded reverse multi-source
  Dijkstra per keyword.

``R`` is the largest ``Rmax`` users may ask for; any query with
``Rmax <= R`` answered on the projected graph (Algorithm 6) returns
exactly the communities of the full graph.

:class:`CommunityIndex` bundles both indexes plus build-time statistics
(elapsed seconds, entry counts, approximate size in bytes) so the
benchmark harness can report the same index numbers the paper quotes in
Section VII.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.exceptions import QueryError
from repro.graph.database_graph import DatabaseGraph
from repro.graph.dijkstra import bounded_dijkstra

Edge = Tuple[int, int, float]


class NodeInvertedIndex:
    """``invertedN``: keyword -> sorted node ids containing it."""

    def __init__(self, postings: Dict[str, List[int]]) -> None:
        self._postings = postings

    @classmethod
    def build(cls, dbg: DatabaseGraph,
              keywords: Optional[Iterable[str]] = None
              ) -> "NodeInvertedIndex":
        """Scan the graph once and collect postings.

        With ``keywords`` given, only that vocabulary is indexed (used
        when the benchmark vocabulary is known up front); otherwise the
        full vocabulary is indexed.
        """
        # Explicit vocabularies are case-folded like everything else
        # (graph keywords and query keywords already are), so a
        # benchmark passing "XML" indexes the folded postings.
        wanted = None if keywords is None \
            else {kw.casefold() for kw in keywords}
        postings: Dict[str, List[int]] = {}
        for node in range(dbg.n):
            for kw in dbg.keywords_of(node):
                if wanted is not None and kw not in wanted:
                    continue
                postings.setdefault(kw, []).append(node)
        for nodes in postings.values():
            nodes.sort()
        return cls(postings)

    def nodes(self, keyword: str) -> List[int]:
        """Posting list for ``keyword`` (empty when absent)."""
        return self._postings.get(keyword, [])

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._postings

    def keywords(self) -> List[str]:
        """All indexed keywords, sorted."""
        return sorted(self._postings)

    def entry_count(self) -> int:
        """Total postings across all keywords."""
        return sum(len(v) for v in self._postings.values())

    def frequency(self, keyword: str, total_tuples: int) -> float:
        """Keyword frequency (the paper's KWF): postings / tuples."""
        if total_tuples <= 0:
            raise QueryError("total_tuples must be positive")
        return len(self.nodes(keyword)) / total_tuples


class EdgeInvertedIndex:
    """``invertedE``: keyword -> edges with both endpoints within R."""

    def __init__(self, postings: Dict[str, List[Edge]], radius: float) -> None:
        self._postings = postings
        self.radius = radius

    @classmethod
    def build(cls, dbg: DatabaseGraph, node_index: NodeInvertedIndex,
              radius: float,
              keywords: Optional[Iterable[str]] = None
              ) -> "EdgeInvertedIndex":
        """One bounded reverse Dijkstra per keyword, then induced edges."""
        if radius < 0:
            raise QueryError(f"index radius must be >= 0, got {radius}")
        vocab = sorted({kw.casefold() for kw in keywords}) \
            if keywords is not None else node_index.keywords()
        postings: Dict[str, List[Edge]] = {}
        graph = dbg.graph
        indptr = graph.forward.indptr
        targets = graph.forward.targets
        weights = graph.forward.weights
        for kw in vocab:
            seeds = node_index.nodes(kw)
            if not seeds:
                postings[kw] = []
                continue
            reached: Set[int] = set(
                bounded_dijkstra(graph.reverse, seeds, radius).distances())
            edges: List[Edge] = []
            for u in reached:
                for idx in range(indptr[u], indptr[u + 1]):
                    v = int(targets[idx])
                    if v in reached:
                        edges.append((u, v, float(weights[idx])))
            edges.sort()
            postings[kw] = edges
        return cls(postings, radius)

    def edges(self, keyword: str) -> List[Edge]:
        """Edge posting list for ``keyword`` (empty when absent)."""
        return self._postings.get(keyword, [])

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._postings

    def keywords(self) -> List[str]:
        """All indexed keywords, sorted (may differ from the node
        index's set when the index was built over an explicit
        vocabulary)."""
        return sorted(self._postings)

    def entry_count(self) -> int:
        """Total edge postings across all keywords."""
        return sum(len(v) for v in self._postings.values())


class ArrayNodeInvertedIndex(NodeInvertedIndex):
    """``invertedN`` served out of flat posting arrays, on demand.

    The snapshot load path: instead of materializing every posting
    list at load, this variant keeps the snapshot's flat node-posting
    column (a read-only int64 view over the mapped ``postings.bin``)
    plus the per-keyword ``(id, count)`` directory, and slices a
    keyword's postings out of the column on first request — decoded to
    a plain Python list (so callers see the exact types the dict-backed
    index returns) and memoized.

    Keyword *names* resolve lazily through ``resolve_vocab`` (the
    snapshot's sorted vocabulary, usually behind the same parse-once
    payload as the lazy graph metadata), so opening the index costs no
    JSON parse at all. Vocab ids are assigned in sorted-name order,
    hence an id-sorted directory is also name-sorted and
    :meth:`keywords` needs no re-sort.
    """

    def __init__(self, keyword_ids: List[int], counts: List[int],
                 flat, resolve_vocab) -> None:
        # No super().__init__: the dict the base class wraps is
        # replaced by the (directory, flat column) pair; every method
        # touching ``_postings`` is overridden.
        self._ids = keyword_ids
        self._counts = counts
        self._starts: List[int] = []
        total = 0
        for count in counts:
            self._starts.append(total)
            total += count
        self._total = total
        self._flat = flat
        self._resolve_vocab = resolve_vocab
        self._names: Optional[List[str]] = None
        self._pos: Optional[Dict[str, int]] = None
        self._memo: Dict[str, List[int]] = {}

    def _positions(self) -> Dict[str, int]:
        pos = self._pos
        if pos is None:
            vocab = self._resolve_vocab()
            self._names = [vocab[i] for i in self._ids]
            pos = self._pos = {
                name: j for j, name in enumerate(self._names)}
        return pos

    def nodes(self, keyword: str) -> List[int]:
        """Posting list for ``keyword``, sliced/decoded on demand."""
        got = self._memo.get(keyword)
        if got is None:
            slot = self._positions().get(keyword)
            if slot is None:
                return []
            start = self._starts[slot]
            got = self._memo[keyword] = \
                self._flat[start:start + self._counts[slot]].tolist()
        return got

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._positions()

    def keywords(self) -> List[str]:
        """All indexed keywords (already name-sorted; see above)."""
        self._positions()
        return list(self._names)

    def entry_count(self) -> int:
        """Total postings across all keywords (from the directory)."""
        return self._total


class ArrayEdgeInvertedIndex(EdgeInvertedIndex):
    """``invertedE`` served out of flat ``u``/``v``/``w`` columns.

    Mirror of :class:`ArrayNodeInvertedIndex` for the edge postings:
    three parallel read-only views (sources, targets, weights) sliced
    per keyword on first request and decoded to the same
    ``(int, int, float)`` tuples the dict-backed index stores.
    """

    def __init__(self, keyword_ids: List[int], counts: List[int],
                 flat_u, flat_v, flat_w, radius: float,
                 resolve_vocab) -> None:
        self.radius = radius
        self._ids = keyword_ids
        self._counts = counts
        self._starts: List[int] = []
        total = 0
        for count in counts:
            self._starts.append(total)
            total += count
        self._total = total
        self._flat_u = flat_u
        self._flat_v = flat_v
        self._flat_w = flat_w
        self._resolve_vocab = resolve_vocab
        self._names: Optional[List[str]] = None
        self._pos: Optional[Dict[str, int]] = None
        self._memo: Dict[str, List[Edge]] = {}

    def _positions(self) -> Dict[str, int]:
        pos = self._pos
        if pos is None:
            vocab = self._resolve_vocab()
            self._names = [vocab[i] for i in self._ids]
            pos = self._pos = {
                name: j for j, name in enumerate(self._names)}
        return pos

    def edges(self, keyword: str) -> List[Edge]:
        """Edge posting list for ``keyword``, sliced/decoded on
        demand."""
        got = self._memo.get(keyword)
        if got is None:
            slot = self._positions().get(keyword)
            if slot is None:
                return []
            start = self._starts[slot]
            stop = start + self._counts[slot]
            got = self._memo[keyword] = list(zip(
                self._flat_u[start:stop].tolist(),
                self._flat_v[start:stop].tolist(),
                self._flat_w[start:stop].tolist()))
        return got

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._positions()

    def keywords(self) -> List[str]:
        """All indexed keywords (already name-sorted; see above)."""
        self._positions()
        return list(self._names)

    def entry_count(self) -> int:
        """Total edge postings across all keywords."""
        return self._total


class CommunityIndex:
    """Both inverted indexes plus build statistics.

    This is what a deployment persists per database; queries only ever
    touch the index, never the full ``G_D`` (Section VI: "the entire
    G_D can be constructed using the two inverted indexes").
    """

    def __init__(self, dbg: DatabaseGraph, node_index: NodeInvertedIndex,
                 edge_index: EdgeInvertedIndex, radius: float,
                 build_seconds: float, generation: int = 0) -> None:
        self.dbg = dbg
        self.node_index = node_index
        self.edge_index = edge_index
        self.radius = radius
        self.build_seconds = build_seconds
        #: Maintenance lineage: 0 for a fresh build, +1 per applied
        #: :class:`~repro.text.maintenance.GraphDelta`. The engine's
        #: projection cache uses index changes to stale-check entries;
        #: this counter makes the lineage observable in stats/reports.
        self.generation = generation

    @classmethod
    def build(cls, dbg: DatabaseGraph, radius: float,
              keywords: Optional[Iterable[str]] = None) -> "CommunityIndex":
        """Build both indexes for the given maximum radius ``R``."""
        start = time.perf_counter()
        node_index = NodeInvertedIndex.build(dbg, keywords)
        edge_index = EdgeInvertedIndex.build(dbg, node_index, radius,
                                             keywords)
        elapsed = time.perf_counter() - start
        return cls(dbg, node_index, edge_index, radius, elapsed)

    # ------------------------------------------------------------------
    # lookups used by Algorithm 6
    # ------------------------------------------------------------------
    def nodes(self, keyword: str) -> List[int]:
        """``getNode(invertedN, k)`` of Algorithm 6."""
        return self.node_index.nodes(keyword)

    def edges(self, keyword: str) -> List[Edge]:
        """``getEdge(invertedE, k)`` of Algorithm 6."""
        return self.edge_index.edges(keyword)

    def require_keyword(self, keyword: str) -> None:
        """Raise :class:`QueryError` when a keyword has no postings."""
        if not self.node_index.nodes(keyword):
            raise QueryError(
                f"keyword {keyword!r} does not occur in the database")

    # ------------------------------------------------------------------
    # statistics (paper §VII reports build time and index size)
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Approximate serialized index size.

        Counted the way an on-disk layout would store it: 8 bytes per
        node posting, 24 per edge posting (two endpoints + weight).
        """
        return (8 * self.node_index.entry_count()
                + 24 * self.edge_index.entry_count())

    def stats(self) -> Dict[str, object]:
        """Build/size statistics for reporting."""
        return {
            "radius": self.radius,
            "keywords": len(self.node_index.keywords()),
            "node_postings": self.node_index.entry_count(),
            "edge_postings": self.edge_index.entry_count(),
            "size_bytes": self.size_bytes(),
            "build_seconds": self.build_seconds,
            "generation": self.generation,
        }

    def __repr__(self) -> str:
        return (f"CommunityIndex(radius={self.radius}, "
                f"keywords={len(self.node_index.keywords())}, "
                f"size={self.size_bytes()}B)")


def python_object_size(index: CommunityIndex) -> int:
    """In-memory footprint estimate of the index (sys.getsizeof based)."""
    total = 0
    for kw in index.node_index.keywords():
        total += sys.getsizeof(index.node_index.nodes(kw))
        total += sys.getsizeof(index.edge_index.edges(kw))
    return total
