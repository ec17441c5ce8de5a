"""Sharded scatter-gather serving: partition, route, merge.

``repro.shard`` is the horizontal-scaling tier on top of the snapshot
lifecycle. One published snapshot is split into K *shard snapshots*
(:mod:`repro.shard.partition`): each is the base snapshot — the
whole graph and index, its section files hard-linked from the base —
plus an ``owned`` section naming the nodes that shard owns. A JSON
*routing manifest* (:mod:`repro.shard.manifest`) records the shard
table. A stateless asyncio *router*
(:class:`repro.shard.aio.AsyncRouterService`, its policy in
:class:`repro.shard.routing.RouterCore`) fans every query out to
every shard's replica set once and reassembles exact answers with the
merge algebra of :mod:`repro.shard.merge`: PDk answers are the ``k``
cheapest of one round of ``k`` per shard, PDall answers the union,
both in canonical ``(cost, core)`` order. The router keeps no
per-keyword or per-node state: a shard refuses what the single box
refuses (an unknown keyword, an ``rmax`` above the index radius),
and that refusal is the router's reply.

The correctness backbone is *anchor ownership*: every community is
uniquely determined by its core ``(c_1, ..., c_l)``, its anchor is
``c_1`` (the knode of the first keyword of the sorted spec), and each
anchor has exactly one owning shard, named by one rule
(:func:`~repro.shard.partition.owning_shard`: node ``g`` of ``K``
shards belongs to shard ``g % K``). Each shard restricts ``V_1`` to
the nodes it owns and computes on the whole graph, so it enumerates
exactly the communities it owns, in exact cost order and in global
ids. The shards split the enumeration, not the data; the router
checks every answer's anchor against the rule and treats a violation
as a failed shard.
"""

from repro.shard.manifest import (
    ROUTING_NAME,
    RoutingManifest,
    ShardEntry,
    is_routing_root,
)
from repro.shard.merge import (
    MergeOutcome,
    filter_owned,
    merge_all,
    merge_top_k,
)
from repro.shard.partition import (
    owning_shard,
    partition_graph,
    partition_snapshot,
)
from repro.shard.routing import RouterCore, parse_shard_urls, \
    reload_fleet

__all__ = [
    "ROUTING_NAME",
    "RoutingManifest",
    "ShardEntry",
    "is_routing_root",
    "MergeOutcome",
    "filter_owned",
    "merge_all",
    "merge_top_k",
    "owning_shard",
    "partition_graph",
    "partition_snapshot",
    "RouterCore",
    "reload_fleet",
    "parse_shard_urls",
]
