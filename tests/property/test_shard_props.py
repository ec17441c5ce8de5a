"""Sharded answers equal unsharded answers, on adversarial graphs.

The central exactness claim of :mod:`repro.shard`: partition any
graph into 2-4 shards (the base snapshot plus each shard's owned
set), let each shard enumerate only the communities whose anchor
``c_1`` it owns, merge — and the result is indistinguishable from
querying the whole graph. Driven in-process (the graph published as
a snapshot, ``partition_snapshot`` publishing the real shard
snapshots, one QueryEngine per shard, the merge library), so
Hypothesis can afford real graph diversity. Each case runs either the
projected path or the index-only path, the two places the engine
restricts ``V_1``.

Comparison semantics mirror the serving contract: PDall set-equal
with exact costs, and the shards' answers pairwise disjoint; PDk
under the k-boundary tie rule of DESIGN.md §10.
"""

import tempfile
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.community import community_sort_key
from repro.engine.engine import QueryEngine
from repro.engine.spec import QuerySpec
from repro.exceptions import QueryError
from repro.graph.generators import random_database_graph
from repro.shard import (
    merge_all,
    merge_top_k,
    owning_shard,
    partition_snapshot,
)
from repro.snapshot import SnapshotStore
from repro.text.inverted_index import CommunityIndex

KEYWORDS = ["a", "b", "c", "d"]


@st.composite
def shard_cases(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.sampled_from([0.08, 0.15, 0.25, 0.4]))
    l = draw(st.integers(min_value=1, max_value=3))
    rmax = float(draw(st.sampled_from([0, 2, 4, 6])))
    bidirected = draw(st.booleans())
    shards = draw(st.integers(min_value=2, max_value=4))
    project = draw(st.booleans())
    dbg = random_database_graph(n, p, KEYWORDS[:l], seed=seed,
                                bidirected=bidirected)
    return dbg, KEYWORDS[:l], rmax, min(shards, dbg.n), project


@contextmanager
def _fleet(dbg, rmax, shards):
    """Publish ``dbg`` (index radius R = rmax), partition it, then
    one engine per shard snapshot, each restricted by its ``owned``
    section."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        SnapshotStore(root / "store").publish(
            dbg, CommunityIndex.build(dbg, rmax))
        manifest, _ = partition_snapshot(root / "store", root / "out",
                                         shards)
        engines = [QueryEngine.from_snapshot(
            root / "out" / e.store / e.snapshot_id)
            for e in manifest.shards]
        yield manifest, engines


def _per_shard(engines, spec):
    """Each shard's answers to ``spec``, already in global ids: every
    shard holds the whole graph, so none refuses a keyword the whole
    graph knows."""
    return [engine.execute(spec) for engine in engines]


@settings(max_examples=40, deadline=None)
@given(shard_cases())
def test_sharded_comm_all_equals_unsharded(case):
    dbg, keywords, rmax, shards, project = case
    try:
        ref = QueryEngine(dbg).run_all(
            QuerySpec.comm_all(keywords, rmax))
    except QueryError:
        return                   # keyword absent from the graph
    ref = sorted(ref, key=community_sort_key)
    with _fleet(dbg, rmax, shards) as (manifest, engines):
        per_shard = _per_shard(engines, QuerySpec.comm_all(
            keywords, rmax, use_projection=project))
    # The shards split the enumeration: every answer is anchored on a
    # node its shard owns, and no two shards report the same core.
    for shard_id, answers in enumerate(per_shard):
        assert all(owning_shard(c.core[0], shards) == shard_id
                   for c in answers)
    for left, right in combinations(per_shard, 2):
        assert not {c.core for c in left} & {c.core for c in right}
    merged = merge_all(per_shard)
    # Exact: same cores, same costs, same membership, same ordering.
    assert [(c.core, c.cost) for c in merged] \
        == [(c.core, c.cost) for c in ref]
    assert sorted(c.nodes for c in merged) \
        == sorted(c.nodes for c in ref)


@settings(max_examples=40, deadline=None)
@given(shard_cases(), st.integers(min_value=1, max_value=6))
def test_sharded_top_k_equals_unsharded(case, k):
    dbg, keywords, rmax, shards, project = case
    engine = QueryEngine(dbg)
    try:
        ref = engine.execute(QuerySpec.comm_k(keywords, k, rmax))
    except QueryError:
        return
    with _fleet(dbg, rmax, shards) as (_, engines):
        per_shard = _per_shard(engines, QuerySpec.comm_k(
            keywords, k, rmax, use_projection=project))
    outcome = merge_top_k(dict(enumerate(per_shard)), k)
    got = [(round(c.cost, 9), c.core) for c in outcome.communities]
    want = [(round(c.cost, 9), c.core) for c in ref]
    # The k-boundary tie rule (DESIGN.md §10): the same costs rank by
    # rank, the same cores below the k-th cost, and at the k-th cost
    # any subset of the communities tied there.
    assert [cost for cost, _ in got] == [cost for cost, _ in want]
    if len(want) < k:
        assert set(got) == set(want)
        return
    boundary = want[-1][0]
    assert {key for key in got if key[0] < boundary} \
        == {key for key in want if key[0] < boundary}
    tied = {c.core for c in engine.run_all(
                QuerySpec.comm_all(keywords, rmax))
            if round(c.cost, 9) == boundary}
    assert {core for cost, core in got if cost == boundary} <= tied
