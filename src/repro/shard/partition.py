"""Split one built index into K independently servable shards.

The partitioner assigns every global node to exactly one *owning*
shard (balanced BFS region growing over the undirected topology, so
regions are connected wherever the graph allows), then widens each
shard with a *halo*: every node within undirected weighted distance
``halo_radius`` of the owned region. Each shard materializes the
induced subgraph over owned + halo and rebuilds the two inverted
indexes at the original index radius ``R``, so a shard snapshot is a
completely ordinary snapshot — the existing ``serve --snapshot``
stack runs it unmodified.

**Why 3R is enough.** Fix a community with core
``C = (c_1, ..., c_l)`` (one knode per keyword of the sorted query
spec) and anchor ``a = c_1`` (global ids). Every center ``u`` has
``dist(u, c_i) <= Rmax <= R`` for all knodes, so undirected
``d(a, u) <= R`` and ``d(a, c_i) <= 2R`` (via ``u``). Every pnode —
and every node on any witness shortest path the bounded Dijkstras of
:mod:`repro.core.getcommunity` can touch — lies on a path of length
``<= R`` from some center to some knode, hence within undirected
``3R`` of ``a``. The argument only uses that the anchor is a knode,
so any fixed keyword position would do; the first is the one the
engine can restrict cheaply. The shard owning ``a`` therefore
contains every node and edge any ``Rmax <= R`` query can inspect
while deciding this community: local distances equal global
distances for everything that matters, and the community (cost,
centers, pnodes, induced edges) is reproduced bit-for-bit.

**Owner-restricted enumeration.** Each shard snapshot carries its
owned nodes as an ``owned`` section (local ids), and the engine
restricts the first keyword's node list ``V_1`` to them after
projection and before any backend runs. The paper enumerates cores
over ``V_1 x ... x V_l``, and a community's existence and cost depend
only on its core and the graph, so a shard's stream is exactly the
communities whose anchor it owns, in exact cost order. Shard subgraph
distances can only be longer than global ones, so a core the shard
finds is a global core too. The shards' answers are therefore
disjoint and their union is the unsharded answer: no shard computes
a community another shard reports.

Region quality therefore affects only halo size (replication factor),
never correctness; a pathological partition just costs memory.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import QueryError, SnapshotError
from repro.graph.database_graph import DatabaseGraph
from repro.shard.manifest import (
    KeywordBloom,
    RoutingManifest,
    ShardEntry,
)
from repro.snapshot.snapshot import load_snapshot
from repro.snapshot.store import SnapshotStore, locate_snapshot
from repro.text.inverted_index import CommunityIndex

PathLike = Union[str, Path]

#: Default halo multiplier over the index radius ``R`` — the proven
#: sufficient containment bound (module docstring).
DEFAULT_HALO_FACTOR = 3.0

#: Relative path (under the partition root) holding per-shard stores.
SHARD_DIR = "shards"


@dataclass
class ShardBundle:
    """One shard's in-memory artifacts, before or without publishing."""

    #: Dense shard index.
    shard_id: int
    #: The shard subgraph (dense local ids).
    dbg: DatabaseGraph
    #: Inverted indexes rebuilt over the shard subgraph at radius R.
    index: CommunityIndex
    #: Local node id -> global node id (sorted ascending).
    node_map: List[int]
    #: Global ids of the nodes this shard owns (the rest are halo).
    owned: List[int]

    @property
    def local_owned(self) -> List[int]:
        """The owned nodes as sorted local ids (the ``owned``
        section of the shard snapshot)."""
        return np.searchsorted(self.node_map, self.owned).tolist()


@dataclass
class PartitionResult:
    """Everything :func:`partition_graph` decides."""

    #: Per-shard artifacts, indexed by shard id.
    bundles: List[ShardBundle]
    #: Global node id -> owning shard id.
    owners: List[int]
    #: Index radius R the shard indexes were built at.
    radius: float
    #: Undirected halo distance used for shard membership.
    halo_radius: float


def _undirected_adjacency(dbg: DatabaseGraph
                          ) -> List[List[Tuple[int, float]]]:
    """Symmetrized adjacency: both edge directions, original weights.

    Partitioning treats ``G_D`` as undirected — the containment
    argument bounds *undirected* distances, which dominate both
    directed ones.
    """
    graph = dbg.graph
    adjacency: List[List[Tuple[int, float]]] = [
        [] for _ in range(graph.n)]
    for u, v, w in graph.edges():
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    return adjacency


def _bfs_order(adjacency: Sequence[Sequence[Tuple[int, float]]]
               ) -> List[int]:
    """A deterministic BFS visitation order covering every component.

    Seeds each unvisited component at its lowest node id and expands
    neighbors in sorted order, so contiguous slices of the order form
    connected (per component) regions — the region-growing step.
    """
    n = len(adjacency)
    seen = [False] * n
    order: List[int] = []
    for seed in range(n):
        if seen[seed]:
            continue
        seen[seed] = True
        frontier = [seed]
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            for neighbor, _ in sorted(adjacency[node]):
                if not seen[neighbor]:
                    seen[neighbor] = True
                    frontier.append(neighbor)
    return order


def _halo_members(adjacency: Sequence[Sequence[Tuple[int, float]]],
                  owned: Iterable[int], radius: float) -> List[int]:
    """Owned nodes plus every node within undirected ``radius``.

    A plain multi-source heap Dijkstra — partitioning is offline, so
    clarity beats the flat kernel here.
    """
    dist: Dict[int, float] = {u: 0.0 for u in owned}
    heap: List[Tuple[float, int]] = [(0.0, u) for u in dist]
    heapq.heapify(heap)
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, float("inf")):
            continue
        for neighbor, weight in adjacency[node]:
            nd = d + weight
            if nd <= radius and nd < dist.get(neighbor,
                                              float("inf")):
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, neighbor))
    return sorted(dist)


def partition_graph(dbg: DatabaseGraph, radius: float,
                    shards: int,
                    halo_radius: Optional[float] = None
                    ) -> PartitionResult:
    """Partition ``dbg`` into ``shards`` owned regions + halos.

    ``radius`` is the index radius R (every served ``Rmax`` must be
    ``<= R``, as with any snapshot); ``halo_radius`` defaults to the
    proven ``3R``. Each bundle's index is rebuilt at R over the shard
    subgraph.
    """
    if shards < 1:
        raise QueryError(f"need at least 1 shard, got {shards}")
    if shards > dbg.n:
        raise QueryError(
            f"cannot split {dbg.n} nodes into {shards} shards")
    if radius < 0:
        raise QueryError(f"radius must be >= 0, got {radius}")
    if halo_radius is None:
        halo_radius = DEFAULT_HALO_FACTOR * radius
    adjacency = _undirected_adjacency(dbg)
    order = _bfs_order(adjacency)

    owners = [0] * dbg.n
    chunks: List[List[int]] = []
    base, extra = divmod(dbg.n, shards)
    start = 0
    for shard_id in range(shards):
        size = base + (1 if shard_id < extra else 0)
        chunk = order[start:start + size]
        start += size
        for node in chunk:
            owners[node] = shard_id
        chunks.append(chunk)

    bundles: List[ShardBundle] = []
    for shard_id, chunk in enumerate(chunks):
        members = _halo_members(adjacency, chunk, halo_radius)
        sub, _ = dbg.induced_subgraph(members)
        index = CommunityIndex.build(sub, radius)
        bundles.append(ShardBundle(
            shard_id=shard_id, dbg=sub, index=index,
            node_map=members, owned=sorted(chunk)))
    return PartitionResult(bundles=bundles, owners=owners,
                           radius=float(radius),
                           halo_radius=float(halo_radius))


def partition_snapshot(source: PathLike, out_root: PathLike,
                       shards: int,
                       halo_radius: Optional[float] = None,
                       verify: bool = True
                       ) -> Tuple[RoutingManifest, Path]:
    """Partition a published snapshot into a routed shard fleet.

    Loads the snapshot at ``source`` (a snapshot directory or store
    root), splits it with :func:`partition_graph`, publishes each
    shard through its own :class:`SnapshotStore` under
    ``out_root/shards/NN`` (atomic, content-addressed), and atomically
    writes ``out_root/routing.json``. Returns the manifest and its
    path. Re-partitioning reproduces the same regions and ownership
    map; shard snapshot ids differ per run because the rebuilt index
    embeds its build time.
    """
    snapshot = load_snapshot(locate_snapshot(source), verify=verify)
    if snapshot.index is None:
        raise SnapshotError(
            f"snapshot {snapshot.id} has no index; partition needs "
            f"one (rebuild with an index radius)")
    result = partition_graph(snapshot.dbg, snapshot.index.radius,
                             shards, halo_radius=halo_radius)
    out_root = Path(out_root)
    entries: List[ShardEntry] = []
    for bundle in result.bundles:
        store_rel = f"{SHARD_DIR}/{bundle.shard_id:02d}"
        store = SnapshotStore(out_root / store_rel)
        published = store.publish(
            bundle.dbg, bundle.index, owned=bundle.local_owned,
            provenance={
                "partition": {
                    "shard": bundle.shard_id,
                    "of": shards,
                    "source_snapshot": snapshot.id,
                    "halo_radius": result.halo_radius,
                },
                "dataset": snapshot.provenance.get("dataset"),
                "index_radius": result.radius,
            })
        entries.append(ShardEntry(
            shard_id=bundle.shard_id,
            snapshot_id=published.id,
            store=store_rel,
            node_map=bundle.node_map,
            owned_nodes=len(bundle.owned),
            counts=dict(published.counts),
            bloom=KeywordBloom.build(
                bundle.index.node_index.keywords()),
        ))
    manifest = RoutingManifest(
        shards=entries, owners=result.owners,
        index_radius=result.radius, halo_radius=result.halo_radius,
        source_snapshot=snapshot.id,
        created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                 time.gmtime()))
    path = manifest.save(out_root)
    return manifest, path
