"""Advanced features tour: everything beyond the paper's baseline.

Covers, on one small citation database:

1. the relational query layer (joins, predicates, secondary indexes);
2. tree answers vs communities (the paper's §I motivation);
3. alternative cost aggregates (``max`` vs the paper's ``sum``);
4. node weights (paper footnote 1);
5. persistence (publish and load a graph + index snapshot);
6. incremental growth (append tuples, update the index in place);
7. Graphviz export of an answer.

    python examples/advanced_features.py
"""

import tempfile
from pathlib import Path

from repro import CommunitySearch
from repro.analysis import community_to_dot, profile_results
from repro.core import enumerate_trees
from repro.datasets import figure1_graph, figure4_graph
from repro.datasets.dblp import DBLPConfig, dblp_graph
from repro.graph.node_weights import node_weighted_view
from repro.rdb import col, query
from repro.snapshot import SnapshotStore, load_snapshot
from repro.text.maintenance import GraphDelta, apply_delta


def relational_queries() -> None:
    print("== 1. Relational query layer " + "=" * 33)
    db, _ = dblp_graph(DBLPConfig.tiny())
    db.table("Write").create_index("Aid")

    prolific = (query(db, "Write")
                .join("Author", on=("Aid", "Aid"))
                .select("Name", "Pid")
                .run())
    by_author = {}
    for row in prolific:
        by_author[row["Name"]] = by_author.get(row["Name"], 0) + 1
    top = max(by_author.items(), key=lambda kv: kv[1])
    print(f"most prolific author: {top[0]!r} with {top[1]} papers")

    recent = (query(db, "Paper")
              .where(col("Title").contains("kw"))
              .limit(3)
              .run())
    print(f"{len(recent)} planted-keyword papers sampled via "
          f"predicate scan")


def trees_vs_communities() -> None:
    print("\n== 2. Trees vs communities (paper §I) " + "=" * 24)
    dbg = figure1_graph()
    trees = enumerate_trees(dbg, ["kate", "smith"], max_weight=8.0)
    print(f"tree answers: {len(trees)} (the paper's Fig. 2 shows 5)")
    search = CommunitySearch(dbg)
    best = search.top_k(["kate", "smith"], 1, rmax=6.0)[0]
    inside = sum(
        1 for t in trees if set(t.nodes) <= set(best.nodes))
    print(f"the single best community contains {inside} of them whole")


def cost_aggregates_and_node_weights() -> None:
    print("\n== 3/4. Aggregates and node weights " + "=" * 26)
    dbg = figure4_graph()
    search = CommunitySearch(dbg)
    by_sum = search.top_k(["a", "b", "c"], 1, rmax=8.0)[0]
    by_max = search.top_k(["a", "b", "c"], 1, rmax=8.0,
                          aggregate="max")[0]
    print(f"best by sum-cost: {by_sum.cost:g}; "
          f"best by max-cost (eccentricity): {by_max.cost:g}")

    # penalize hub nodes: weight each node by half its in-degree
    weights = [dbg.graph.in_degree(u) / 2 for u in range(dbg.n)]
    weighted = CommunitySearch(node_weighted_view(dbg, weights))
    penalized = weighted.top_k(["a", "b", "c"], 1, rmax=16.0)[0]
    print(f"with node weights the same query's best cost becomes "
          f"{penalized.cost:g}")


def persistence_and_growth() -> None:
    print("\n== 5/6. Persistence and incremental growth " + "=" * 19)
    dbg = figure4_graph()
    search = CommunitySearch(dbg)
    index = search.build_index(radius=8.0)

    with tempfile.TemporaryDirectory() as tmp:
        store = SnapshotStore(Path(tmp) / "store")
        store.publish(dbg, index, provenance={"dataset": "fig4"})
        snapshot = load_snapshot(store.resolve("latest"))
        size = sum(section["bytes"] for section
                   in snapshot.manifest["sections"].values())
        print(f"round-tripped graph and index through snapshot "
              f"{snapshot.id} ({size} B)")

        # a new paper node containing all three keywords joins near v8
        delta = GraphDelta(
            new_nodes=[({"a", "b", "c"}, "v14", None)],
            new_edges=[(7, 13, 1.0), (13, 7, 1.0)])
        new_dbg, new_index = apply_delta(snapshot.index, delta)
    grown = CommunitySearch(new_dbg, index=new_index)
    best = grown.top_k(["a", "b", "c"], 1, rmax=8.0)[0]
    print(f"after growth the best community costs {best.cost:g} "
          f"(core includes the new node: {13 in best.core})")


def export_dot() -> None:
    print("\n== 7. Graphviz export " + "=" * 40)
    dbg = figure4_graph()
    search = CommunitySearch(dbg)
    results = search.top_k(["a", "b", "c"], 5, rmax=8.0)
    print(profile_results(results).render())
    dot = community_to_dot(results[0], dbg, name="R3")
    print("first two DOT lines:",
          " / ".join(dot.splitlines()[:2]))


if __name__ == "__main__":
    relational_queries()
    trees_vs_communities()
    cost_aggregates_and_node_weights()
    persistence_and_growth()
    export_dot()
