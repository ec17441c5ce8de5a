"""The cross-shard merge algebra: exact union and exact top-k.

These functions are transport-agnostic — the router drives them over
HTTP fetches, the property tests over in-process engines — so the
algorithm being exact can be tested without sockets.

**Ownership filtering.** Each shard answers with every community it
can see; only the shard owning a community's *anchor* (the minimum
global node id of its core) reports it exactly, because only that
shard's halo provably contains the whole neighborhood (see
:mod:`repro.shard.partition`). :func:`filter_owned` keeps exactly the
anchored answers, which is both the dedup and the correctness rule.

**COMM-all.** Union the filtered per-shard answers and sort by the
canonical ``(cost, core)`` key. An unsharded PDall enumerates in DFS
subspace order, which no merge can reproduce, so the sharded contract
is canonical ordering — clients comparing against a single box must
normalize ordering the same way (the CI smoke does).

**COMM-k.** Per-shard PDk streams emit in non-decreasing cost, so a
k-way merge by ``(cost, core)`` over the filtered streams is exact.
Because filtering discards an unknown prefix of each shard's raw
stream, the merge driver *overfetches*: ask every shard for ``k``,
and while a non-exhausted shard's frontier (the cost of its last raw
answer — no later answer can be cheaper) does not strictly clear the
merged k-th cost, double that shard's fetch size and re-ask. Queries
are stateless idempotent reads, so re-asking is always safe and the
router needs no per-shard sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.community import Community, community_sort_key

#: Hard cap on overfetch-doubling rounds; at 2^12 x k per shard any
#: real stream is exhausted. Reaching the cap returns the best merged
#: prefix found (and the outcome records the truncation).
MAX_ROUNDS = 12


def globalize(communities: Sequence[Community],
              node_map: Sequence[int]) -> List[Community]:
    """Translate shard-local answers into global ``G_D`` ids.

    ``node_map`` is the shard's dense local->global list; sequence
    indexing satisfies the mapping protocol :meth:`Community.relabel`
    needs.
    """
    return [c.relabel(node_map) for c in communities]


def filter_owned(communities: Sequence[Community],
                 owners: Sequence[int],
                 shard_id: int) -> List[Community]:
    """Keep the communities whose anchor ``shard_id`` owns.

    Expects *global* ids (apply :func:`globalize` first). Preserves
    input order, so a cost-ordered stream stays cost-ordered.
    """
    return [c for c in communities
            if owners[min(c.core)] == shard_id]


def merge_all(per_shard: Sequence[Sequence[Community]]
              ) -> List[Community]:
    """Exact COMM-all union in canonical ``(cost, core)`` order.

    Inputs must already be globalized and ownership-filtered; anchors
    have unique owners, so the union is duplicate-free by
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
class FetchResult:
    """One shard's reply to "give me your first ``want`` answers".

    ``kept`` must be globalized, ownership-filtered, and in the
    shard's emission (cost) order. ``raw_count`` is how many answers
    the shard returned *before* filtering; ``exhausted`` means the
    shard has no further answers beyond those; ``frontier`` is the
    cost of the last raw answer when the shard may still hold more
    (every unseen answer costs at least the frontier), ``None`` when
    exhausted.
    """

    kept: List[Community]
    raw_count: int
    exhausted: bool
    frontier: Optional[float] = None


#: The merge driver's view of the fleet: given ``{shard_id: want}``,
#: return ``{shard_id: FetchResult_or_None}`` — ``None`` when that
#: shard failed (timeout, crash, unreachable), which degrades the
#: answer to a partial result instead of erroring. Implementations
#: may fan the round out concurrently (the router does).
FetchManyFn = Callable[[Dict[int, int]],
                       Dict[int, Optional[FetchResult]]]


def fetch_many_from(fetch: Callable[[int, int],
                                    Optional[FetchResult]]
                    ) -> FetchManyFn:
    """Adapt a per-shard ``fetch(shard_id, want)`` to the batched
    interface (sequential; tests and in-process callers use this)."""
    def fan(wants: Dict[int, int]
            ) -> Dict[int, Optional[FetchResult]]:
        """One sequential round of fetches."""
        return {shard_id: fetch(shard_id, want)
                for shard_id, want in wants.items()}
    return fan


@dataclass
class MergeOutcome:
    """A merged top-k plus the bookkeeping the router reports."""

    #: The merged, globally ordered answer prefix.
    communities: List[Community]
    #: Shard ids that answered every fetch asked of them.
    answered: List[int]
    #: Shard ids that failed at least one fetch.
    failed: List[int]
    #: Overfetch rounds driven (1 = no re-ask needed).
    rounds: int = 1
    #: Total candidate answers inspected across shards (merge depth).
    candidates: int = 0
    #: True when :data:`MAX_ROUNDS` stopped the overfetch loop before
    #: the exactness condition held (pathological; answer may miss
    #: equal-cost tail entries).
    truncated: bool = False
    #: Per-shard fetch sizes at the end of the drive (observability).
    fetch_sizes: Dict[int, int] = field(default_factory=dict)


class TopKMerge:
    """Sans-IO driver for the exact overfetch-doubling top-k merge.

    The exactness policy lives here once; transports own only the
    fetching. A caller alternates :meth:`next_round` (which wants to
    ask, and for how much) with :meth:`feed` (what came back) until
    :attr:`done` flips true, then reads :meth:`outcome`.
    The router fans each round out with ``asyncio.gather``;
    :func:`merge_top_k` drives the same state machine over a
    synchronous ``fetch_many`` for the tests and in-process callers.

    Exactness condition: the merged k-th answer's cost must be
    *strictly* below every live shard's frontier (ties at the
    boundary force another round, so a cheaper-or-equal answer hidden
    behind a shard's filtered prefix can never be missed). Shards
    whose fetch fails (``feed`` value ``None``) are dropped from the
    merge and reported in ``failed`` — the caller decides how to
    surface partiality.
    """

    def __init__(self, shard_ids: Sequence[int], k: int,
                 max_rounds: int = MAX_ROUNDS) -> None:
        self.shard_ids = list(shard_ids)
        self.k = k
        self.max_rounds = max_rounds
        self._want: Dict[int, int] = {s: k for s in self.shard_ids}
        self._results: Dict[int, Optional[FetchResult]] = {}
        self._pending: List[int] = list(self.shard_ids)
        self._rounds = 0
        self._truncated = False
        self._done = False
        self._top: List[Community] = []
        self._live: Dict[int, FetchResult] = {}

    @property
    def done(self) -> bool:
        """True once the exactness condition holds (or the round cap
        tripped) — the drive loop's termination signal."""
        return self._done

    def next_round(self) -> Dict[int, int]:
        """``{shard_id: want}`` for the next fetch round (empty on an
        empty fleet — feed ``{}`` back; the round still counts)."""
        return {s: self._want[s] for s in self._pending}

    def feed(self, results: Dict[int, Optional[FetchResult]]) -> None:
        """Absorb one round of fetch results and advance the state."""
        self._rounds += 1
        self._results.update(results)
        self._live = {s: r for s, r in self._results.items()
                      if r is not None}
        candidates = sorted(
            (c for r in self._live.values() for c in r.kept),
            key=community_sort_key)
        self._top = candidates[:self.k]
        if len(self._top) == self.k:
            boundary = self._top[-1].cost
            needy = [s for s, r in self._live.items()
                     if not r.exhausted and r.frontier is not None
                     and r.frontier <= boundary]
        else:
            needy = [s for s, r in self._live.items()
                     if not r.exhausted]
        if not needy:
            self._pending = []
            self._done = True
            return
        if self._rounds >= self.max_rounds:
            self._pending = []
            self._truncated = True
            self._done = True
            return
        for shard_id in needy:
            self._want[shard_id] *= 2
        self._pending = needy

    def outcome(self) -> MergeOutcome:
        """The merged answer plus bookkeeping, once the drive is done."""
        failed = [s for s in self.shard_ids
                  if self._results.get(s) is None]
        return MergeOutcome(
            communities=self._top,
            answered=[s for s in self.shard_ids if s not in failed],
            failed=failed,
            rounds=self._rounds,
            candidates=sum(r.raw_count for r in self._live.values()),
            truncated=self._truncated,
            fetch_sizes=dict(self._want),
        )


def merge_top_k(fetch_many: FetchManyFn, shard_ids: Sequence[int],
                k: int, max_rounds: int = MAX_ROUNDS
                ) -> MergeOutcome:
    """Drive :class:`TopKMerge` over a synchronous ``fetch_many``."""
    merge = TopKMerge(shard_ids, k, max_rounds=max_rounds)
    while not merge.done:
        merge.feed(fetch_many(merge.next_round()))
    return merge.outcome()
