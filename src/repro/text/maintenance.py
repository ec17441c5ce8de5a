"""Incremental maintenance: append tuples, update the index in place.

The paper builds its inverted indexes once (355 s for DBLP) — but real
databases grow. This module supports *append-only* growth: new tuple
nodes and new reference edges arrive, and the community index is
updated without re-walking every keyword.

Soundness argument (why local recomputation is safe):

* any *new* path ``u -> … -> W_w`` of weight ``<= R`` must cross a new
  or re-weighted edge; the first such edge's head ``h`` then reaches
  ``W_w`` within ``R`` in the new graph (non-negative weights). So the
  keywords needing recomputation are exactly those whose keyword nodes
  are forward-reachable within ``R`` from the heads of new/changed
  edges, plus the keywords of the new nodes themselves. One bounded
  multi-source Dijkstra finds them.
* affected keywords get exact fresh postings; unaffected keywords keep
  their old postings, which can only be *supersets* after a change
  (BANKS re-weighting increases weights, shrinking true neighbor
  sets). Superset postings are harmless: the query-time projection
  (Algorithm 6) recomputes real distances and prunes them, so query
  answers stay exact — the index just gets less tight until the next
  :func:`rebuild <repro.text.inverted_index.CommunityIndex.build>`.

The update touches only the affected keywords. Their fresh postings
go into copies of the parent's posting dicts
(:meth:`~repro.text.inverted_index.PostingStore.with_postings`); every
other keyword, in either map, is read where the parent reads it, so a
loaded snapshot's mapped posting columns stay shared and undecoded.

The equivalence (updated index answers ≡ fresh-rebuild answers) is
property-tested in ``tests/property/test_maintenance_props.py``.

Each applied delta advances the index ``generation`` counter
(:attr:`CommunityIndex.generation`); the execution engine's projection
cache keys its entries on index generation, so applying a delta
through :meth:`repro.engine.QueryEngine.apply_delta` (or the
:class:`~repro.core.search.CommunitySearch` facade) automatically
evicts every pre-delta projection — cached answers can never lag a
grown graph (``tests/property/test_projection_cache_props.py``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.graph.csr import CompiledGraph
from repro.graph.database_graph import DatabaseGraph, Provenance
from repro.graph.dijkstra import bounded_dijkstra
from repro.text.inverted_index import CommunityIndex, induced_edges

Edge = Tuple[int, int, float]


@dataclass
class GraphDelta:
    """An append-only batch: new nodes and new directed edges.

    ``new_nodes`` entries are ``(keywords, label, provenance)``; their
    ids are assigned densely after the existing nodes, in order. Edge
    endpoints may reference both old and new ids.
    """

    new_nodes: List[Tuple[Set[str], str, Optional[Provenance]]] = \
        field(default_factory=list)
    new_edges: List[Edge] = field(default_factory=list)

    def node_count(self) -> int:
        """Number of new nodes in this delta."""
        return len(self.new_nodes)


def extend_database_graph(dbg: DatabaseGraph, delta: GraphDelta,
                          banks_reweight: bool = False
                          ) -> Tuple[DatabaseGraph, Set[int]]:
    """Apply a delta; return the new graph and the *changed heads*.

    Changed heads are the targets of new edges plus (with
    ``banks_reweight``) every node whose in-degree — and therefore the
    BANKS weight of *all* its in-edges — changed. They seed the
    affected-keyword scan in :func:`update_index`.

    With ``banks_reweight`` the new edges' weights are ignored and the
    whole edge set is re-weighted as ``log2(1 + N_in(v))``, matching
    :func:`repro.rdb.graph_builder.build_database_graph`.
    """
    n_old = dbg.n
    n_new = n_old + delta.node_count()
    for u, v, w in delta.new_edges:
        if not (0 <= u < n_new and 0 <= v < n_new):
            raise GraphError(
                f"delta edge ({u}, {v}) outside extended node range "
                f"0..{n_new - 1}")
        if w < 0:
            raise GraphError(f"negative delta edge weight {w}")

    old_edges = list(dbg.graph.edges())
    changed_heads: Set[int] = {v for _, v, _ in delta.new_edges}

    if banks_reweight:
        in_degree = [0] * n_new
        for _, v, _ in old_edges:
            in_degree[v] += 1
        for _, v, _ in delta.new_edges:
            in_degree[v] += 1
        all_edges = []
        for u, v, w_old in old_edges:
            w_new = math.log2(1 + in_degree[v])
            if w_new != w_old:
                # weight drift (new in-edges, or the base graph was
                # not BANKS-weighted): every path through v changes
                changed_heads.add(v)
            all_edges.append((u, v, w_new))
        all_edges.extend(
            (u, v, math.log2(1 + in_degree[v]))
            for u, v, _ in delta.new_edges)
    else:
        all_edges = old_edges + list(delta.new_edges)

    graph = CompiledGraph.from_edges(n_new, all_edges)
    keywords = [dbg.keywords_of(u) for u in range(n_old)] + [
        set(kws) for kws, _, _ in delta.new_nodes]
    labels = [dbg.label_of(u) for u in range(n_old)] + [
        label for _, label, _ in delta.new_nodes]
    provenance = [dbg.provenance_of(u) for u in range(n_old)] + [
        prov for _, _, prov in delta.new_nodes]
    return DatabaseGraph(graph, keywords, labels, provenance), \
        changed_heads


def affected_keywords(new_dbg: DatabaseGraph, delta: GraphDelta,
                      changed_heads: Iterable[int], radius: float
                      ) -> Set[str]:
    """Keywords whose postings may gain entries from the delta."""
    affected: Set[str] = set()
    for kws, _, _ in delta.new_nodes:
        affected |= set(kws)
    heads = set(changed_heads)
    if heads:
        reach = bounded_dijkstra(new_dbg.graph.forward, heads, radius)
        for node in reach:
            affected |= new_dbg.keywords_of(node)
    return affected


def update_index(index: CommunityIndex, new_dbg: DatabaseGraph,
                 delta: GraphDelta, changed_heads: Iterable[int]
                 ) -> CommunityIndex:
    """Produce an updated :class:`CommunityIndex` for the grown graph.

    Affected keywords are recomputed exactly and added to copies of
    the parent's posting dicts; every other keyword keeps its previous
    (never under-complete) postings, read from wherever the parent
    reads them (mapped snapshot columns stay shared, not copied). The
    returned index wraps ``new_dbg``; ``build_seconds`` accumulates
    the incremental cost.
    """
    start = time.perf_counter()
    radius = index.radius
    affected = affected_keywords(new_dbg, delta, changed_heads, radius)
    node_postings: Dict[str, List[int]] = {}
    edge_postings: Dict[str, List[Edge]] = {}
    for kw in sorted(affected):
        seeds = node_postings[kw] = new_dbg.nodes_with_keyword(kw)
        # This module's ``bounded_dijkstra`` runs the search, so the
        # recompute counts as the maintenance call site when traced.
        edge_postings[kw] = induced_edges(new_dbg.graph, seeds, radius,
                                          bounded_dijkstra)
    elapsed = time.perf_counter() - start
    return CommunityIndex(
        new_dbg,
        index.node_index.with_postings(node_postings),
        index.edge_index.with_postings(edge_postings),
        radius,
        index.build_seconds + elapsed,
        generation=index.generation + 1,
    )


def apply_delta(index: CommunityIndex, delta: GraphDelta,
                banks_reweight: bool = False
                ) -> Tuple[DatabaseGraph, CommunityIndex]:
    """Grow the graph and update the index in one step."""
    new_dbg, changed_heads = extend_database_graph(
        index.dbg, delta, banks_reweight)
    new_index = update_index(index, new_dbg, delta, changed_heads)
    return new_dbg, new_index
