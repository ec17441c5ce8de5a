"""Merge-algebra unit tests: relabeling, ownership, union, exact top-k.

Top-k answers are compared under the k-boundary tie rule of
DESIGN.md §10: costs rank by rank, and the slots at the k-th cost may
hold any subset of the communities tied there.
"""

from repro.core.community import Community
from repro.shard import (
    filter_owned,
    merge_all,
    merge_top_k,
)


def _comm(core, cost):
    """A minimal community over its own core nodes."""
    core = tuple(sorted(core))
    return Community(core=core, cost=float(cost), centers=core[:1],
                     pnodes=core, nodes=core, edges=())


# ----------------------------------------------------------------------
# relabel / filter_owned / merge_all
# ----------------------------------------------------------------------
def test_globalize_relabels_through_node_map():
    """Shard answers arrive in global ids and the merge relabels
    nothing; ``Community.relabel`` — how a projected query's answers
    return to ``G_D`` ids — maps every id through a sequence."""
    node_map = [4, 7, 9]                 # local 0,1,2 -> global 4,7,9
    out = _comm((0, 2), 3.0).relabel(node_map)
    assert out.core == (4, 9)
    assert out.nodes == out.pnodes == (4, 9)
    assert out.centers == (4,)
    assert out.cost == 3.0


def test_filter_owned_keeps_anchored_answers_in_order():
    """Of 2 shards, shard 0 owns the even anchors and shard 1 the odd
    ones (node ``g`` belongs to shard ``g % 2``)."""
    answers = [_comm((0, 2), 1.0), _comm((3, 4), 2.0),
               _comm((2, 3), 3.0), _comm((1, 3), 4.0)]
    kept = filter_owned(answers, 2, 0)
    assert [c.core for c in kept] == [(0, 2), (2, 3)]
    kept1 = filter_owned(answers, 2, 1)
    assert [c.core for c in kept1] == [(3, 4), (1, 3)]
    assert filter_owned(answers, 1, 0) == answers


def test_merge_all_sorts_by_cost_then_core():
    merged = merge_all([
        [_comm((1, 2), 5.0), _comm((0, 3), 2.0)],
        [_comm((0, 2), 5.0)],
    ])
    assert [c.core for c in merged] == [(0, 3), (0, 2), (1, 2)]


def test_merge_all_drops_duplicate_cores():
    merged = merge_all([[_comm((0, 1), 2.0)], [_comm((0, 1), 2.0)]])
    assert len(merged) == 1


# ----------------------------------------------------------------------
# merge_top_k: one round of k per shard
# ----------------------------------------------------------------------
def test_merge_top_k_exact_across_two_shards():
    # Each shard's stream holds only the communities it owns.
    s0 = [_comm((0,), 1.0), _comm((1,), 5.0)]
    s1 = [_comm((2,), 2.0), _comm((3,), 3.0)]
    out = merge_top_k({0: s0[:3], 1: s1[:3]}, 3)
    assert [c.core for c in out.communities] == [(0,), (2,), (3,)]
    assert [c.cost for c in out.communities] == [1.0, 2.0, 3.0]
    assert out.answered == [0, 1]
    assert out.failed == []
    assert out.candidates == 4


def test_merge_top_k_one_round_covers_a_cut_shard():
    """A shard that returned k answers holds back only answers at or
    above its own k-th cost, so one round still finds every answer
    cheaper than the merged k-th cost (DESIGN.md §10)."""
    s0 = [_comm((2 * i,), float(cost))
          for i, cost in enumerate((1, 2, 3, 4, 9))]
    s1 = [_comm((2 * i + 1,), float(cost))
          for i, cost in enumerate((2.5, 3.5))]
    k = 4
    out = merge_top_k({0: s0[:k], 1: s1[:k]}, k)
    assert [c.cost for c in out.communities] == [1.0, 2.0, 2.5, 3.0]


def test_merge_top_k_boundary_tie_keeps_a_tied_subset():
    """Two shards tie at the k-th cost: either pick is correct under
    the tie rule; the merge takes the smaller core."""
    out = merge_top_k({0: [_comm((1,), 2.0)], 1: [_comm((0,), 2.0)]},
                      1)
    assert [(c.core, c.cost) for c in out.communities] \
        == [((0,), 2.0)]


def test_merge_top_k_failed_shard_reported_not_fatal():
    out = merge_top_k({0: [_comm((0,), 1.0)], 1: None}, 2)
    assert out.failed == [1]
    assert out.answered == [0]
    assert [c.core for c in out.communities] == [(0,)]


def test_merge_top_k_no_shards():
    out = merge_top_k({}, 3)
    assert out.communities == []
    assert out.answered == out.failed == []
    assert out.candidates == 0
