"""The cross-shard merge algebra: exact union and exact top-k.

These functions are transport-agnostic — the router drives them over
HTTP legs, the property tests over in-process engines — so the merge
being exact can be tested without sockets.

**Ownership.** A community's *anchor* is ``c_1 = core[0]``, the knode
of the first keyword of the sorted query spec. Each shard enumerates
only the communities whose anchor it owns, on the whole base graph
and in global ids (see :mod:`repro.shard.partition`), so shard
answers are disjoint, their union is the unsharded answer, and the
merge relabels nothing. :func:`filter_owned` keeps the answers a
shard owns under the one ownership rule
(:func:`~repro.shard.partition.owning_shard`); the router uses it as
a check, not a filter: a leg that returns an answer another shard
owns is a shard failure, and none of its answers are merged.

**COMM-all.** Union the per-shard answers and sort by the canonical
``(cost, core)`` key. An unsharded PDall enumerates in DFS subspace
order, which no merge can reproduce, so the sharded contract is
canonical ordering — clients comparing against a single box must
normalize ordering the same way (the CI smoke does).

**COMM-k.** Ask every shard for ``k`` once and keep the ``k`` cheapest
answers of the union by ``(cost, core)``. One round is exact under
the k-boundary tie rule (DESIGN.md §10): every answer cheaper than
the merged k-th cost lies in some shard's returned prefix, because a
shard that returned ``k`` answers has ``k`` candidates at or below
its own k-th cost, so the merged k-th cost cannot exceed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.community import Community, community_sort_key
from repro.shard.partition import owning_shard


def filter_owned(communities: Sequence[Community], shards: int,
                 shard_id: int) -> List[Community]:
    """Keep the communities whose anchor ``core[0]`` shard
    ``shard_id`` of ``shards`` owns.

    Preserves input order, so a cost-ordered stream stays
    cost-ordered.
    """
    return [c for c in communities
            if owning_shard(c.core[0], shards) == shard_id]


def merge_all(per_shard: Iterable[Sequence[Community]]
              ) -> List[Community]:
    """Exact COMM-all union in canonical ``(cost, core)`` order.

    Anchors have unique owners, so the union is duplicate-free by
    construction (a duplicate core would mean two shards both claimed
    ownership — asserted away in tests, tolerated here by keeping the
    first).
    """
    merged: Dict[tuple, Community] = {}
    for answers in per_shard:
        for community in answers:
            merged.setdefault(community.core, community)
    return sorted(merged.values(), key=community_sort_key)


@dataclass
class MergeOutcome:
    """A merged top-k plus the bookkeeping the router reports."""

    #: The merged, globally ordered answer prefix.
    communities: List[Community]
    #: Shard ids whose legs answered.
    answered: List[int]
    #: Shard ids whose legs failed.
    failed: List[int]
    #: Candidate answers inspected across shards (merge depth).
    candidates: int = 0


def merge_top_k(legs: Mapping[int, Optional[Sequence[Community]]],
                k: int) -> MergeOutcome:
    """Exact top-``k`` from one round of ``k`` per shard.

    ``legs`` maps each shard id to its answers (its first
    ``k``, in cost order), or ``None`` when the shard's leg failed
    (timeout, crash, ownership violation), which degrades the answer
    to a partial result instead of erroring.
    """
    answered = sorted(s for s, leg in legs.items() if leg is not None)
    live = [legs[s] for s in answered]
    return MergeOutcome(
        communities=merge_all(live)[:k],
        answered=answered,
        failed=sorted(s for s, leg in legs.items() if leg is None),
        candidates=sum(len(leg) for leg in live))
