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

Both indexes keep their postings in one :class:`PostingStore`: a dict
of keyword -> list over optional :class:`PostingColumns`, the flat
read-only columns of a snapshot's mapped ``postings.bin``. The dict
wins over the columns. A built index is all dict, a loaded snapshot's
is all columns, and an incremental update
(:func:`repro.text.maintenance.update_index`) shares its parent's
columns and adds the keywords it recomputed to a copy of the dict.

:class:`CommunityIndex` bundles both indexes plus build-time statistics
(elapsed seconds, entry counts, approximate size in bytes) so the
benchmark harness can report the same index numbers the paper quotes in
Section VII.
"""

from __future__ import annotations

import copy
import itertools
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError
from repro.graph.csr import CompiledGraph
from repro.graph.database_graph import DatabaseGraph
from repro.graph.dijkstra import bounded_dijkstra

Edge = Tuple[int, int, float]


class PostingColumns:
    """A snapshot's posting directory over flat read-only columns.

    ``keyword_ids`` (vocabulary ids, ascending) and ``counts`` locate
    each keyword's run in ``columns``: one column of node ids, or three
    parallel ones (sources, targets, weights) for edge postings. A
    run is decoded on first request to the plain Python a built index
    holds (a list of ints, or of ``(int, int, float)`` tuples) and
    memoized; every index sharing these columns shares the memo.

    Keyword *names* resolve lazily through ``resolve_vocab`` (the
    snapshot's sorted vocabulary, behind the same parse-once payload
    as the lazy graph metadata), so opening the index costs no JSON
    parse. Vocabulary ids are assigned in sorted-name order, so the
    directory is name-sorted too.
    """

    def __init__(self, keyword_ids: List[int], counts: List[int],
                 columns: Sequence, resolve_vocab: Callable[[], List[str]]
                 ) -> None:
        self._ids = keyword_ids
        self._counts = counts
        self._starts = list(itertools.accumulate(counts, initial=0))
        self._columns = columns
        self._resolve_vocab = resolve_vocab
        self._pos: Optional[Dict[str, int]] = None
        self._memo: Dict[str, list] = {}

    @property
    def total(self) -> int:
        """Postings across all keywords (from the directory)."""
        return self._starts[-1]

    def names(self) -> List[str]:
        """The keywords, name-sorted."""
        return list(self._positions())

    def _positions(self) -> Dict[str, int]:
        """Keyword name -> directory slot, in directory order."""
        if self._pos is None:
            vocab = self._resolve_vocab()
            self._pos = {vocab[i]: j for j, i in enumerate(self._ids)}
        return self._pos

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._positions()

    def count(self, keyword: str) -> int:
        """The length of ``keyword``'s run (0 when absent)."""
        slot = self._positions().get(keyword)
        return 0 if slot is None else self._counts[slot]

    def run(self, keyword: str) -> Optional[list]:
        """``keyword``'s run as one slice of each column, decoding
        nothing; ``None`` when absent."""
        slot = self._positions().get(keyword)
        if slot is None:
            return None
        start, stop = self._starts[slot], self._starts[slot + 1]
        return [column[start:stop] for column in self._columns]

    def get(self, keyword: str) -> Optional[list]:
        """``keyword``'s run, decoded on first request; ``None`` when
        absent."""
        got = self._memo.get(keyword)
        if got is None:
            runs = self.run(keyword)
            if runs is None:
                return None
            runs = [run.tolist() for run in runs]
            got = self._memo[keyword] = \
                runs[0] if len(runs) == 1 else list(zip(*runs))
        return got


class PostingStore:
    """Keyword -> posting list: a dict over optional mapped columns.

    A keyword in the ``postings`` dict is read from there, which wins;
    any other from ``columns`` (:class:`PostingColumns`, ``None`` for
    a built index).
    """

    def __init__(self, postings: Dict[str, list],
                 columns: Optional[PostingColumns] = None) -> None:
        self._postings = postings
        self._columns = columns

    def _get(self, keyword: str) -> list:
        got = self._postings.get(keyword)
        if got is None and self._columns is not None:
            got = self._columns.get(keyword)
        return [] if got is None else got

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._postings or (
            self._columns is not None and keyword in self._columns)

    def run(self, keyword: str) -> Optional[list]:
        """``keyword``'s postings as slices of the mapped columns
        (:meth:`PostingColumns.run`), when they hold them and the dict
        does not override them; ``None`` otherwise."""
        if keyword in self._postings or self._columns is None:
            return None
        return self._columns.run(keyword)

    def keywords(self) -> List[str]:
        """All indexed keywords, sorted."""
        mapped = self._columns.names() \
            if self._columns is not None else ()
        return sorted(set(mapped).union(self._postings))

    def entry_count(self) -> int:
        """Total postings across all keywords."""
        total = sum(len(v) for v in self._postings.values())
        if self._columns is not None:
            total += self._columns.total - sum(
                self._columns.count(kw) for kw in self._postings)
        return total

    def with_postings(self, postings: Dict[str, list]
                      ) -> "PostingStore":
        """A copy whose dict also holds ``postings``, winning over
        this store's; the columns stay shared."""
        updated = copy.copy(self)
        updated._postings = {**self._postings, **postings}
        return updated


def induced_edges(graph: CompiledGraph, seeds: Sequence[int],
                  radius: float,
                  search: Callable = bounded_dijkstra) -> List[Edge]:
    """``invertedE[w]`` for one keyword with nodes ``seeds``: the
    sorted edges whose endpoints both reach a seed within ``radius``.

    ``search`` runs the bounded reverse Dijkstra; a caller passes its
    own module's ``bounded_dijkstra`` so its searches count as its own
    call site where a tracer replaces that name.
    """
    if not seeds:
        return []
    reached = set(search(graph.reverse, seeds, radius).distances())
    indptr = graph.forward.indptr
    targets = graph.forward.targets
    weights = graph.forward.weights
    edges: List[Edge] = []
    for u in reached:
        for idx in range(indptr[u], indptr[u + 1]):
            v = int(targets[idx])
            if v in reached:
                edges.append((u, v, float(weights[idx])))
    edges.sort()
    return edges


class NodeInvertedIndex(PostingStore):
    """``invertedN``: keyword -> sorted node ids containing it."""

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
        return self._get(keyword)

    def frequency(self, keyword: str, total_tuples: int) -> float:
        """Keyword frequency (the paper's KWF): postings / tuples."""
        if total_tuples <= 0:
            raise QueryError("total_tuples must be positive")
        return len(self.nodes(keyword)) / total_tuples


class EdgeInvertedIndex(PostingStore):
    """``invertedE``: keyword -> edges with both endpoints within R.

    Its keyword set may differ from the node index's when the index
    was built over an explicit vocabulary.
    """

    def __init__(self, postings: Dict[str, List[Edge]], radius: float,
                 columns: Optional[PostingColumns] = None) -> None:
        super().__init__(postings, columns)
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
        return cls({kw: induced_edges(dbg.graph, node_index.nodes(kw),
                                      radius)
                    for kw in vocab}, radius)

    def edges(self, keyword: str) -> List[Edge]:
        """Edge posting list for ``keyword`` (empty when absent)."""
        return self._get(keyword)


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
