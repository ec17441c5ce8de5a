"""Split one published snapshot into K owner-restricted shards.

A shard snapshot is the base snapshot plus an ``owned`` section: the
same graph, the same inverted indexes and the same node ids, and the
sorted ids of the nodes the shard owns. Node ``g`` belongs to shard
``g % K`` (:func:`partition_graph`). Every other section reproduces
the base's bytes, so the snapshot writer hard-links the base's files
into each shard store (:func:`~repro.snapshot.snapshot.
write_snapshot`): partitioning builds no index, and the backends of
one fleet share the base's pages. A shard snapshot is an ordinary
snapshot — the existing ``serve --snapshot`` stack runs it
unmodified.

**Owner-restricted enumeration.** Fix a community with core
``C = (c_1, ..., c_l)`` (one knode per keyword of the sorted query
spec); its *anchor* is ``c_1``. The engine of a shard restricts the
first keyword's node list ``V_1`` to the owned nodes after
projection and before any backend runs. The paper enumerates cores
over ``V_1 x ... x V_l``, and a community's existence and cost depend
only on its core and the graph. A shard computes on the whole base
graph and index, so its distances are global distances: its stream
is exactly the communities whose anchor it owns, in exact cost
order, each reproduced bit-for-bit (cost, centers, pnodes, induced
edges), in global ids. Every anchor has one owner, so the shards'
answers are disjoint and their union is the unsharded answer: no
shard computes a community another shard reports.

Ownership affects only how the enumeration is balanced, never
correctness.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.exceptions import QueryError, SnapshotError
from repro.graph.database_graph import DatabaseGraph
from repro.shard.manifest import RoutingManifest, ShardEntry
from repro.snapshot.snapshot import load_snapshot
from repro.snapshot.store import SnapshotStore, locate_snapshot

PathLike = Union[str, Path]

#: Relative path (under the partition root) holding per-shard stores.
SHARD_DIR = "shards"


def owning_shard(node: int, shards: int) -> int:
    """The shard of ``shards`` that owns global node ``node``: the one
    ownership rule, which :func:`partition_graph` writes into every
    shard's ``owned`` section and :func:`~repro.shard.merge.
    filter_owned` checks answers against."""
    return node % shards


def partition_graph(dbg: DatabaseGraph, shards: int) -> List[int]:
    """The owning shard of every node of ``dbg``
    (:func:`owning_shard`), so every shard owns at least one node."""
    if shards < 1:
        raise QueryError(f"need at least 1 shard, got {shards}")
    if shards > dbg.n:
        raise QueryError(
            f"cannot split {dbg.n} nodes into {shards} shards")
    return [owning_shard(g, shards) for g in range(dbg.n)]


def partition_snapshot(source: PathLike, out_root: PathLike,
                       shards: int) -> Tuple[RoutingManifest, Path]:
    """Partition a published snapshot into a routed shard fleet.

    Loads the snapshot at ``source`` (a snapshot directory or store
    root) once, assigns owners with :func:`partition_graph`, publishes
    each shard — the base's graph and index plus its ``owned``
    section — through its own :class:`SnapshotStore` under
    ``out_root/shards/NN`` (atomic, content-addressed), and atomically
    writes ``out_root/routing.json``. Returns the manifest and its
    path. Snapshot ids digest content only, so partitioning the same
    base again reproduces every shard id and the manifest generation.
    """
    base = load_snapshot(locate_snapshot(source))
    if base.index is None:
        raise SnapshotError(
            f"snapshot {base.id} has no index; partition needs "
            f"one (rebuild with an index radius)")
    owners = partition_graph(base.dbg, shards)
    out_root = Path(out_root)
    entries: List[ShardEntry] = []
    for shard_id in range(shards):
        store_rel = f"{SHARD_DIR}/{shard_id:02d}"
        published = SnapshotStore(out_root / store_rel).publish(
            base.dbg, base.index,
            owned=np.flatnonzero(np.asarray(owners) == shard_id),
            provenance={
                "partition": {
                    "shard": shard_id,
                    "of": shards,
                    "source_snapshot": base.id,
                },
                "dataset": base.provenance.get("dataset"),
                "index_radius": base.radius,
            })
        entries.append(ShardEntry(
            shard_id=shard_id,
            snapshot_id=published.id,
            store=store_rel,
            owned_nodes=len(published.owned),
            counts=dict(published.counts),
        ))
    manifest = RoutingManifest(
        shards=entries, index_radius=base.radius,
        source_snapshot=base.id,
        created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                 time.gmtime()))
    return manifest, manifest.save(out_root)
