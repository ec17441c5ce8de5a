"""The community model (paper Definition 2.1).

A *community* for an ``l``-keyword query is the induced subgraph of
``G_D`` over ``V = V_l ∪ V_c ∪ V_p``:

* ``V_l`` — *knodes*: the core ``C = [c_1..c_l]`` where ``c_i``
  contains keyword ``k_i`` (a node may fill several positions);
* ``V_c`` — *cnodes* (centers): nodes ``u`` with
  ``dist(u, c_i) <= Rmax`` for every knode;
* ``V_p`` — *pnodes*: nodes on any center→knode path of total weight
  ``<= Rmax``.

A community is uniquely determined by its core; its cost is
``min over centers u of Σ_i dist(u, c_i)`` and communities rank
ascending by cost (rank 1 = smallest).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, FrozenSet, Mapping, Tuple

from repro.graph.database_graph import DatabaseGraph

#: A core: one node id per query keyword, in keyword order.
Core = Tuple[int, ...]

Edge = Tuple[int, int, float]


@dataclass(frozen=True)
class Community:
    """An immutable community result.

    ``core[i]`` is the knode carrying keyword ``i`` of the query;
    ``centers``, ``pnodes`` and ``nodes`` are sorted node-id tuples;
    ``edges`` is the induced edge set (every ``G_D`` edge between
    community nodes, per Definition 2.1).
    """

    core: Core
    cost: float
    centers: Tuple[int, ...]
    pnodes: Tuple[int, ...]
    nodes: Tuple[int, ...]
    edges: Tuple[Edge, ...] = field(default_factory=tuple)

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle the fields only. A memo kept in the instance dict
        (the service's encoded JSON) stays in its process, so a pickle
        is the same bytes whether or not the community was encoded."""
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @property
    def knodes(self) -> FrozenSet[int]:
        """The distinct keyword nodes (``V_l``)."""
        return frozenset(self.core)

    @property
    def size(self) -> int:
        """Number of nodes in the community."""
        return len(self.nodes)

    def is_multi_center(self) -> bool:
        """True when the community has more than one center — the
        structure trees cannot express (paper §I)."""
        return len(self.centers) > 1

    # ------------------------------------------------------------------
    def relabel(self, mapping: Mapping[int, int]) -> "Community":
        """Translate every node id through ``mapping``.

        Used to map results computed on a projected graph back into
        ``G_D``'s id space.
        """
        return Community(
            core=tuple(mapping[u] for u in self.core),
            cost=self.cost,
            centers=tuple(sorted(mapping[u] for u in self.centers)),
            pnodes=tuple(sorted(mapping[u] for u in self.pnodes)),
            nodes=tuple(sorted(mapping[u] for u in self.nodes)),
            edges=tuple(sorted(
                (mapping[u], mapping[v], w) for u, v, w in self.edges)),
        )

    def describe(self, dbg: DatabaseGraph) -> str:
        """Render the community with node labels, paper-figure style."""
        knode_labels = ", ".join(dbg.label_of(u) for u in sorted(self.knodes))
        center_labels = ", ".join(dbg.label_of(u) for u in self.centers)
        pnode_labels = ", ".join(dbg.label_of(u) for u in self.pnodes)
        lines = [
            f"Community(cost={self.cost:g})",
            f"  knodes : {knode_labels}",
            f"  cnodes : {center_labels}",
        ]
        if self.pnodes:
            lines.append(f"  pnodes : {pnode_labels}")
        lines.append(f"  edges  : {len(self.edges)}")
        return "\n".join(lines)


_FIELD_NAMES = tuple(f.name for f in fields(Community))


def rank_table(communities) -> Dict[int, Community]:
    """``rank (1-based) -> community`` for an already-sorted sequence."""
    return {rank: comm for rank, comm in enumerate(communities, start=1)}


def community_sort_key(community: Community) -> Tuple[float, Core]:
    """Deterministic ordering: ascending cost, then lexicographic core.

    The paper only requires ascending cost; the core tie-break pins a
    unique total order so tests and benchmarks are reproducible.
    """
    return (community.cost, community.core)
