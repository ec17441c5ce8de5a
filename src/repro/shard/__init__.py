"""Sharded scatter-gather serving: partition, route, merge.

``repro.shard`` is the horizontal-scaling tier on top of the snapshot
lifecycle. One published snapshot is split into K *shard snapshots*
(:mod:`repro.shard.partition`), each a complete, independently
servable artifact covering one owned region of ``G_D`` plus the halo
of context nodes its queries can reach, and carrying its owned nodes
as an ``owned`` section. A JSON *routing manifest*
(:mod:`repro.shard.manifest`) records the shard table, the node
ownership map, and per-shard keyword Bloom summaries. A stateless
asyncio *router* (:class:`repro.shard.aio.AsyncRouterService`, its
policy in :class:`repro.shard.routing.RouterCore`) fans each query
out to per-shard replica sets once and reassembles exact answers
with the merge algebra of :mod:`repro.shard.merge`: PDk answers are
the ``k`` cheapest of one round of ``k`` per shard, PDall answers the
union, both in canonical ``(cost, core)`` order.

The correctness backbone is *anchor ownership*: every community is
uniquely determined by its core ``(c_1, ..., c_l)``, its anchor is
``c_1`` (the knode of the first keyword of the sorted spec), and each
anchor has exactly one owning shard. Each shard restricts ``V_1`` to
the nodes it owns, so it enumerates exactly the communities it owns,
in exact cost order, and the owning shard's halo is wide enough (3R
by default) to reproduce each of them bit-for-bit. The shards split
the enumeration, not only the data; the router checks every answer's
anchor against the manifest and treats a violation as a failed
shard.
"""

from repro.shard.manifest import (
    ROUTING_NAME,
    KeywordBloom,
    RoutingManifest,
    ShardEntry,
    is_routing_root,
)
from repro.shard.merge import (
    MergeOutcome,
    filter_owned,
    globalize,
    merge_all,
    merge_top_k,
)
from repro.shard.partition import (
    PartitionResult,
    ShardBundle,
    partition_graph,
    partition_snapshot,
)
from repro.shard.routing import RouterCore, parse_shard_urls, \
    reload_fleet

__all__ = [
    "ROUTING_NAME",
    "KeywordBloom",
    "RoutingManifest",
    "ShardEntry",
    "is_routing_root",
    "MergeOutcome",
    "filter_owned",
    "globalize",
    "merge_all",
    "merge_top_k",
    "PartitionResult",
    "ShardBundle",
    "partition_graph",
    "partition_snapshot",
    "RouterCore",
    "reload_fleet",
    "parse_shard_urls",
]
