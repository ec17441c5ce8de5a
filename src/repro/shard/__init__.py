"""Sharded scatter-gather serving: partition, route, merge.

``repro.shard`` is the horizontal-scaling tier on top of the snapshot
lifecycle. One published snapshot is split into K *shard snapshots*
(:mod:`repro.shard.partition`), each a complete, independently
servable artifact covering one owned region of ``G_D`` plus the halo
of context nodes its queries can reach. A JSON *routing manifest*
(:mod:`repro.shard.manifest`) records the shard table, the node
ownership map, and per-shard keyword Bloom summaries. A stateless
asyncio *router* (:class:`repro.shard.aio.AsyncRouterService`, its
policy in :class:`repro.shard.routing.RouterCore`) fans queries out to
per-shard replica sets and reassembles exact answers with the merge
algebra of :mod:`repro.shard.merge`: PDk streams are combined by
k-way merge-by-cost (exact, because each shard enumerates in
non-decreasing cost order), PDall answers by ownership-filtered
union.

The correctness backbone is *anchor ownership*: every community is
uniquely determined by its core, each core has one anchor (its
minimum global node id), and each anchor has exactly one owning
shard. Shards answer with everything they can see; the router keeps
an answer only from the shard that owns its anchor, which makes the
union both duplicate-free and exact — the owning shard's halo is wide
enough (3R by default) to reproduce the community bit-for-bit.
"""

from repro.shard.manifest import (
    ROUTING_NAME,
    KeywordBloom,
    RoutingManifest,
    ShardEntry,
    is_routing_root,
)
from repro.shard.merge import (
    FetchResult,
    MergeOutcome,
    TopKMerge,
    fetch_many_from,
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
    "FetchResult",
    "MergeOutcome",
    "TopKMerge",
    "fetch_many_from",
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
