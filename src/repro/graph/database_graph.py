"""Database graph: a compiled digraph whose nodes carry text.

The paper's ``G_D`` is a weighted digraph over tuples where each node
may contain keywords. :class:`DatabaseGraph` bundles the compiled
topology with per-node keyword sets, human-readable labels, and optional
provenance back to the originating relation/tuple, so results can be
rendered the way the paper's figures render them ("paper1", "Kate
Green", ...).

It is produced either by :func:`repro.rdb.graph_builder.build_database_graph`
from a relational database, or directly by the dataset generators and
tests.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.csr import CompiledGraph
from repro.graph.digraph import DiGraph

Provenance = Tuple[str, object]  # (table name, primary key)


class DatabaseGraph:
    """A compiled graph plus node keywords, labels, and provenance."""

    __slots__ = ("graph", "_keywords", "_labels", "_provenance")

    #: The snapshot directory whose sections the graph maps; ``None``
    #: for a graph built in memory (see :class:`LazyDatabaseGraph`).
    origin: Optional[Path] = None

    def __init__(self, graph: CompiledGraph,
                 keywords: Sequence[Iterable[str]],
                 labels: Optional[Sequence[str]] = None,
                 provenance: Optional[Sequence[Optional[Provenance]]] = None,
                 ) -> None:
        if len(keywords) != graph.n:
            raise GraphError(
                f"keyword list has {len(keywords)} entries for "
                f"{graph.n} nodes")
        if labels is not None and len(labels) != graph.n:
            raise GraphError(
                f"label list has {len(labels)} entries for {graph.n} nodes")
        if provenance is not None and len(provenance) != graph.n:
            raise GraphError(
                f"provenance list has {len(provenance)} entries for "
                f"{graph.n} nodes")
        self.graph = graph
        # Keywords are case-folded at the boundary: the tokenizer
        # lowercases all extracted text, and QuerySpec case-folds all
        # query keywords, so the canonical vocabulary is folded — a
        # graph built with "XML" must answer a query for "xml".
        self._keywords: List[FrozenSet[str]] = [
            frozenset(k.casefold() for k in kw) for kw in keywords]
        self._labels: List[str] = (
            list(labels) if labels is not None
            else [f"v{u}" for u in range(graph.n)])
        self._provenance: List[Optional[Provenance]] = (
            list(provenance) if provenance is not None
            else [None] * graph.n)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.graph.n

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return self.graph.m

    def keywords_of(self, node: int) -> FrozenSet[str]:
        """The keyword set carried by ``node``."""
        self._check_node(node)
        return self._keywords[node]

    def label_of(self, node: int) -> str:
        """Human-readable label of ``node``."""
        self._check_node(node)
        return self._labels[node]

    def provenance_of(self, node: int) -> Optional[Provenance]:
        """``(table, primary key)`` the node came from, if known."""
        self._check_node(node)
        return self._provenance[node]

    # ------------------------------------------------------------------
    # keyword scans (tests and small graphs; queries use the inverted
    # index from repro.text instead)
    # ------------------------------------------------------------------
    def nodes_with_keyword(self, keyword: str) -> List[int]:
        """Linear scan for nodes containing ``keyword``."""
        return [u for u in range(self.n) if keyword in self._keywords[u]]

    def vocabulary(self) -> Set[str]:
        """All keywords appearing anywhere in the graph."""
        vocab: Set[str] = set()
        for kws in self._keywords:
            vocab.update(kws)
        return vocab

    # ------------------------------------------------------------------
    # projection support
    # ------------------------------------------------------------------
    def induced_subgraph(self, nodes: Sequence[int]
                         ) -> Tuple["DatabaseGraph", Dict[int, int]]:
        """Build the induced subgraph over ``nodes``.

        Returns the new :class:`DatabaseGraph` (densely relabeled) and
        the ``old id -> new id`` mapping. Keywords, labels, and
        provenance are carried over, so a query answered on the
        projection renders identically to one answered on ``G_D``.
        """
        ordered = sorted(set(nodes))
        mapping = {old: new for new, old in enumerate(ordered)}
        builder = DiGraph(len(ordered))
        for u, v, w in self.graph.induced_edges(ordered):
            builder.add_edge(mapping[u], mapping[v], w)
        # Accessor methods (not the backing lists) so lazily-decoding
        # subclasses materialize exactly the nodes the projection
        # touches.
        sub = DatabaseGraph(
            builder.compile(),
            [self.keywords_of(old) for old in ordered],
            [self.label_of(old) for old in ordered],
            [self.provenance_of(old) for old in ordered],
        )
        return sub, mapping

    def __repr__(self) -> str:
        return f"DatabaseGraph(n={self.n}, m={self.m})"

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise NodeNotFoundError(node, self.n)


#: What a :class:`LazyDatabaseGraph` loader returns: ``(vocab,
#: node_keyword_ids, labels, raw_provenance)`` — the vocabulary, one
#: sorted vocab-id list per node, one label per node, and one
#: *encoded* provenance entry per node (decoded on access).
LazyPayload = Tuple[Sequence[str], Sequence[Sequence[int]],
                    Sequence[str], Sequence[object]]


class LazyDatabaseGraph(DatabaseGraph):
    """A :class:`DatabaseGraph` that decodes node metadata on demand.

    Snapshot loads use this so worker spawn never pays the eager
    per-node work the base constructor does (``frozenset`` per node,
    provenance decode per node) — nor even the ``nodes.json`` parse:
    ``loader`` is invoked once, on the first metadata access, and
    must return a :data:`LazyPayload`. Per-node keyword sets and
    provenance are then materialized node-by-node as queries touch
    them, memoized for reuse. All mutation happens behind accessor
    calls and is idempotent, so concurrent readers are safe under the
    GIL.

    ``provenance_decoder`` maps one raw payload entry to the
    ``(table, pk)`` tuple (``None`` passes through); injected by the
    caller to keep this module free of codec imports. ``origin`` is
    the snapshot directory the graph is mapped from: the snapshot
    writer links that snapshot's files for the sections it would
    write byte for byte.
    """

    __slots__ = ("_loader", "_decode_prov", "_payload", "_kw_memo",
                 "_prov_memo", "_vocab_ids", "origin")

    def __init__(self, graph: CompiledGraph, loader,
                 provenance_decoder=None,
                 origin: Optional[Path] = None) -> None:
        # Deliberately does not chain to DatabaseGraph.__init__: the
        # whole point is to skip its eager per-node materialization.
        # The base class's _keywords/_labels/_provenance slots stay
        # unset; every method touching them is overridden here.
        self.graph = graph
        self.origin = origin
        self._loader = loader
        self._decode_prov = provenance_decoder
        self._payload: Optional[LazyPayload] = None
        self._kw_memo: Dict[int, FrozenSet[str]] = {}
        self._prov_memo: Dict[int, Optional[Provenance]] = {}
        self._vocab_ids: Optional[Dict[str, int]] = None

    def _data(self) -> LazyPayload:
        payload = self._payload
        if payload is None:
            payload = self._loader()
            vocab, node_kws, labels, provenance = payload
            n = self.graph.n
            if len(node_kws) != n or len(labels) != n \
                    or len(provenance) != n:
                raise GraphError(
                    f"lazy node payload length mismatch: "
                    f"{len(node_kws)}/{len(labels)}/{len(provenance)} "
                    f"entries for {n} nodes")
            self._payload = payload
            self._loader = None  # free the closure (and its buffer)
        return payload

    def decode(self) -> None:
        """Parse the node metadata now instead of on first access
        (how :func:`repro.snapshot.verify_snapshot` decodes every
        section)."""
        self._data()

    # -- overridden accessors ------------------------------------------
    def keywords_of(self, node: int) -> FrozenSet[str]:
        """The keyword set of ``node``, decoded and memoized on
        first access."""
        self._check_node(node)
        memo = self._kw_memo
        kws = memo.get(node)
        if kws is None:
            vocab, node_kws, _, _ = self._data()
            kws = memo[node] = frozenset(
                vocab[i] for i in node_kws[node])
        return kws

    def label_of(self, node: int) -> str:
        """Human-readable label of ``node`` (payload-backed)."""
        self._check_node(node)
        return self._data()[2][node]

    def provenance_of(self, node: int) -> Optional[Provenance]:
        """``(table, pk)`` of ``node``, decoded and memoized on
        first access."""
        self._check_node(node)
        memo = self._prov_memo
        if node in memo:
            return memo[node]
        raw = self._data()[3][node]
        decoded = self._decode_prov(raw) if self._decode_prov else raw
        memo[node] = decoded
        return decoded

    def nodes_with_keyword(self, keyword: str) -> List[int]:
        """Linear scan over the *encoded* keyword-id lists — no
        per-node set materialization."""
        ids = self._vocab_ids
        if ids is None:
            vocab = self._data()[0]
            ids = self._vocab_ids = {
                kw: i for i, kw in enumerate(vocab)}
        kid = ids.get(keyword)
        if kid is None:
            return []
        node_kws = self._data()[1]
        return [u for u in range(self.n) if kid in node_kws[u]]

    def vocabulary(self) -> Set[str]:
        """Keywords carried by at least one node.

        The stored vocabulary may be a superset (it also covers
        index-only keywords), so membership is derived from the
        per-node id lists — matching the eager class's semantics,
        which keeps snapshot ids stable across load/re-write cycles.
        """
        vocab, node_kws, _, _ = self._data()
        used: Set[int] = set()
        for ids in node_kws:
            used.update(ids)
        return {vocab[i] for i in used}
