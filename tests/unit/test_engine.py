"""Unit tests for the execution engine subsystem.

Covers the :class:`~repro.engine.spec.QuerySpec` contract, the
algorithm registry, the projection cache (hits, eviction, generation
invalidation, and the headline repeated-query speedup) and the
per-stage instrumentation channel.
"""

import time

import pytest

from repro.core.community import Community
from repro.core.search import CommunitySearch
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.engine import (
    AlgorithmRegistry,
    AlgorithmSpec,
    ProjectionCache,
    QueryContext,
    QueryEngine,
    QuerySpec,
    default_registry,
)
from repro.exceptions import QueryError
from repro.text.maintenance import GraphDelta

ALGORITHMS = ("pd", "bu", "td", "naive")


@pytest.fixture()
def engine(fig4):
    e = QueryEngine(fig4)
    e.build_index(radius=FIG4_RMAX)
    return e


class TestQuerySpec:
    def test_normalizes_keywords_to_tuple(self):
        spec = QuerySpec(["a", "b"], 5.0)
        assert spec.keywords == ("a", "b")

    def test_empty_keywords_rejected(self):
        with pytest.raises(QueryError):
            QuerySpec((), 5.0)

    def test_negative_rmax_rejected(self):
        with pytest.raises(QueryError):
            QuerySpec(("a",), -1.0)

    def test_nan_rmax_rejected(self):
        with pytest.raises(QueryError):
            QuerySpec(("a",), float("nan"))

    def test_bad_mode_rejected(self):
        with pytest.raises(QueryError):
            QuerySpec(("a",), 5.0, mode="stream")

    def test_topk_requires_positive_k(self):
        with pytest.raises(QueryError):
            QuerySpec.comm_k(("a",), 0, 5.0)
        with pytest.raises(QueryError):
            QuerySpec(("a",), 5.0, mode="topk")

    def test_cache_key_ignores_keyword_order(self):
        assert QuerySpec(("a", "b"), 5.0).cache_key() \
            == QuerySpec(("b", "a"), 5.0).cache_key()

    def test_with_algorithm_and_describe(self):
        spec = QuerySpec.comm_k(("a", "b"), 3, 5.0).with_algorithm("bu")
        assert spec.algorithm == "bu"
        assert "COMM-k" in spec.describe()
        assert "bu" in spec.describe()


class TestRegistry:
    def test_default_backends_registered(self):
        registry = default_registry()
        assert registry.names() == ("bu", "naive", "pd", "td")
        assert "pd" in registry and len(registry) == 4

    def test_unknown_algorithm_lists_names(self):
        with pytest.raises(QueryError, match="unknown algorithm"):
            default_registry().get("bogus")

    def test_duplicate_registration_needs_replace(self):
        registry = default_registry()
        spec = registry.get("pd")
        with pytest.raises(QueryError):
            registry.register(spec)
        registry.register(spec, replace=True)

    def test_all_backends_agree_through_engine(self, engine):
        reference = None
        for algorithm in ALGORITHMS:
            got = sorted(
                (c.core, c.cost) for c in engine.run_all(
                    QuerySpec.comm_all(FIG4_QUERY, FIG4_RMAX,
                                       algorithm=algorithm)))
            if reference is None:
                reference = got
            assert got == reference

    def test_topk_backends_agree_on_costs(self, engine):
        reference = None
        for algorithm in ALGORITHMS:
            costs = [c.cost for c in engine.top_k(
                QuerySpec.comm_k(FIG4_QUERY, 4, FIG4_RMAX,
                                 algorithm=algorithm))]
            if reference is None:
                reference = costs
            assert costs == reference

    def test_iter_all_fails_eagerly_on_bad_algorithm(self, engine):
        with pytest.raises(QueryError):
            engine.iter_all(
                QuerySpec.comm_all(FIG4_QUERY, FIG4_RMAX,
                                   algorithm="bogus"))

    def test_custom_backend_routes_through_facade(self, fig4):
        def fake_all(dbg, keywords, rmax, *, node_lists=None,
                     aggregate="sum", budget_seconds=None, stats=None):
            return iter([Community(core=(0,), cost=0.0, centers=(0,),
                                   pnodes=(0,), nodes=(0,),
                                   edges=())])

        def fake_top_k(dbg, keywords, k, rmax, *, node_lists=None,
                       aggregate="sum", budget_seconds=None,
                       stats=None):
            return list(fake_all(dbg, keywords, rmax))[:k]

        registry = default_registry()
        registry.register(AlgorithmSpec("fake", fake_all, fake_top_k))
        search = CommunitySearch(fig4, registry=registry)
        results = search.all_communities(list(FIG4_QUERY), FIG4_RMAX,
                                         algorithm="fake")
        assert [c.core for c in results] == [(0,)]


class TestProjectionCache:
    def test_repeated_query_hits_cache(self, engine):
        """The result cache absorbs the repeat before the projection
        cache is even consulted: one projection, one enumeration."""
        ctx = QueryContext()
        spec = QuerySpec.comm_all(FIG4_QUERY, FIG4_RMAX)
        first = engine.run_all(spec, ctx)
        second = engine.run_all(spec, ctx)
        assert ctx.counter("projection_runs") == 1
        assert ctx.counter("projection_cache_misses") == 1
        assert ctx.counter("result_cache_misses") == 1
        assert ctx.counter("result_cache_hits") == 1
        assert [(c.core, c.cost, c.nodes, c.edges) for c in first] \
            == [(c.core, c.cost, c.nodes, c.edges) for c in second]

    def test_repeated_query_hits_projection_cache_when_results_off(
            self, fig4):
        """With the result cache disabled the projection cache still
        serves the repeat (the pre-results behaviour)."""
        engine = QueryEngine(fig4, result_cache_bytes=0)
        engine.build_index(FIG4_RMAX)
        ctx = QueryContext()
        spec = QuerySpec.comm_all(FIG4_QUERY, FIG4_RMAX)
        engine.run_all(spec, ctx)
        engine.run_all(spec, ctx)
        assert ctx.counter("projection_runs") == 1
        assert ctx.counter("projection_cache_misses") == 1
        assert ctx.counter("projection_cache_hits") == 1
        assert ctx.counter("result_cache_hits") == 0

    def test_keyword_order_shares_entry(self, engine):
        ctx = QueryContext()
        keywords = list(FIG4_QUERY)
        engine.project(keywords, FIG4_RMAX, ctx)
        engine.project(list(reversed(keywords)), FIG4_RMAX, ctx)
        assert ctx.counter("projection_runs") == 1
        assert ctx.counter("projection_cache_hits") == 1

    def test_distinct_rmax_is_a_miss(self, engine):
        ctx = QueryContext()
        engine.project(list(FIG4_QUERY), FIG4_RMAX, ctx)
        engine.project(list(FIG4_QUERY), FIG4_RMAX - 1.0, ctx)
        assert ctx.counter("projection_runs") == 2

    def test_use_cache_false_bypasses(self, engine):
        ctx = QueryContext()
        engine.project(list(FIG4_QUERY), FIG4_RMAX, ctx)
        engine.project(list(FIG4_QUERY), FIG4_RMAX, ctx,
                       use_cache=False)
        assert ctx.counter("projection_runs") == 2
        assert ctx.counter("projection_cache_hits") == 0

    def test_lru_eviction_at_capacity(self, fig4):
        engine = QueryEngine(fig4, cache_capacity=1)
        engine.build_index(radius=FIG4_RMAX)
        ctx = QueryContext()
        engine.project(["a"], FIG4_RMAX, ctx)
        engine.project(["b"], FIG4_RMAX, ctx)     # evicts ["a"]
        engine.project(["a"], FIG4_RMAX, ctx)     # miss again
        assert ctx.counter("projection_runs") == 3
        assert engine.cache.stats.evictions == 2
        assert len(engine.cache) == 1

    def test_index_assignment_invalidates(self, engine):
        ctx = QueryContext()
        engine.project(list(FIG4_QUERY), FIG4_RMAX, ctx)
        generation = engine.generation
        epoch = engine.generation_epoch
        engine.index = engine.index       # any assignment invalidates
        assert engine.generation != generation
        assert engine.generation_epoch == epoch + 1
        assert len(engine.cache) == 0
        engine.project(list(FIG4_QUERY), FIG4_RMAX, ctx)
        assert ctx.counter("projection_runs") == 2

    def test_apply_delta_evicts_and_answers_fresh(self, fig4):
        engine = QueryEngine(fig4)
        engine.build_index(radius=FIG4_RMAX)
        ctx = QueryContext()
        spec = QuerySpec.comm_all(FIG4_QUERY, FIG4_RMAX)
        engine.run_all(spec, ctx)
        assert len(engine.cache) == 1

        delta = GraphDelta(new_nodes=[({"a"}, "extra", None)],
                           new_edges=[(fig4.n, 0, 1.0),
                                      (0, fig4.n, 1.0)])
        new_dbg, new_index = engine.apply_delta(delta)
        assert len(engine.cache) == 0
        assert new_index.generation == 1
        assert engine.dbg is new_dbg

        after = engine.run_all(spec, ctx)
        assert ctx.counter("projection_runs") == 2   # re-projected
        fresh = CommunitySearch(new_dbg)
        fresh.build_index(radius=FIG4_RMAX)
        expected = fresh.all_communities(list(FIG4_QUERY), FIG4_RMAX)
        assert [(c.core, c.cost, c.nodes) for c in after] \
            == [(c.core, c.cost, c.nodes) for c in expected]

    def test_apply_delta_requires_index(self, fig4):
        with pytest.raises(QueryError):
            QueryEngine(fig4).apply_delta(GraphDelta())

    def test_stale_generation_dropped_on_sight(self, fig4):
        cache = ProjectionCache(capacity=4)
        engine = QueryEngine(fig4, cache=cache)
        engine.build_index(radius=FIG4_RMAX)
        projection = engine.project(list(FIG4_QUERY), FIG4_RMAX)
        key = (frozenset(FIG4_QUERY), float(FIG4_RMAX))
        assert cache.get(key, engine.generation) is projection
        assert cache.get(key, engine.generation + "-stale") is None
        assert cache.stats.stale_drops == 1
        assert key not in cache

    def test_invalid_capacity_rejected(self):
        with pytest.raises(QueryError):
            ProjectionCache(capacity=0)

    def test_warm_projection_at_least_2x_faster(self, engine):
        """The micro-benchmark behind the cache: a cache hit must beat
        re-running Algorithm 6 by at least 2x (it is a dict lookup, so
        in practice the ratio is orders of magnitude)."""
        keywords = list(FIG4_QUERY)

        def best_of(repeats, fn):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        cold = best_of(5, lambda: engine.project(
            keywords, FIG4_RMAX, use_cache=False))
        engine.project(keywords, FIG4_RMAX)       # fill the cache
        warm = best_of(5, lambda: engine.project(keywords, FIG4_RMAX))
        assert warm * 2 <= cold


class TestExecuteBatch:
    def test_matches_execute_per_spec_one_context_each(self, fig4):
        engine = QueryEngine(fig4, result_cache_bytes=0)
        engine.build_index(radius=FIG4_RMAX)
        specs = [QuerySpec.comm_k(FIG4_QUERY, 1, FIG4_RMAX),
                 QuerySpec.comm_all(FIG4_QUERY, FIG4_RMAX),
                 QuerySpec.comm_k(FIG4_QUERY, 3, FIG4_RMAX)]
        contexts = [QueryContext() for _ in specs]
        batched = engine.execute_batch(specs, contexts)
        assert batched == [engine.execute(spec) for spec in specs]
        assert [len(answer) for answer in batched] == [1, 5, 3]
        assert [ctx.counter("communities") for ctx in contexts] \
            == [1, 5, 3]


class TestContext:
    def test_stages_recorded_for_projected_query(self, engine):
        ctx = QueryContext()
        engine.run_all(QuerySpec.comm_all(FIG4_QUERY, FIG4_RMAX), ctx)
        for stage in ("resolve", "project", "enumerate", "translate"):
            assert ctx.seconds(stage) >= 0.0
            assert stage in ctx.timings
        assert ctx.counter("communities") == 5
        assert ctx.total_seconds > 0.0

    def test_as_dict_flattens(self, engine):
        ctx = QueryContext()
        engine.run_all(QuerySpec.comm_all(FIG4_QUERY, FIG4_RMAX,
                                          algorithm="bu"), ctx)
        flat = ctx.as_dict()
        assert flat["project_seconds"] == ctx.seconds("project")
        assert flat["communities"] == 5.0
        assert flat["pool_candidates"] >= 5.0

    def test_merge_accumulates(self):
        a, b = QueryContext(), QueryContext()
        a.add_time("project", 1.0)
        b.add_time("project", 2.0)
        b.count("communities", 3)
        b.baseline.pool_peak = 7
        a.merge(b)
        assert a.seconds("project") == 3.0
        assert a.counter("communities") == 3
        assert a.baseline.pool_peak == 7

    def test_render_mentions_stages_and_counters(self):
        ctx = QueryContext()
        assert ctx.render() == "(no instrumentation)"
        ctx.add_time("project", 0.5)
        ctx.count("projection_cache_hits")
        rendered = ctx.render()
        assert "project=" in rendered
        assert "projection_cache_hits=1" in rendered

    def test_facade_context_and_stats_channels(self, fig4):
        from repro.core.baselines.pool import BaselineStats
        search = CommunitySearch(fig4)
        search.build_index(radius=FIG4_RMAX)
        ctx = QueryContext()
        stats = BaselineStats()
        search.all_communities(list(FIG4_QUERY), FIG4_RMAX,
                               algorithm="bu", stats=stats, context=ctx)
        assert ctx.baseline is stats
        assert stats.candidates > 0

    def test_stream_counts_through_context(self, fig4):
        search = CommunitySearch(fig4)
        search.build_index(radius=FIG4_RMAX)
        ctx = QueryContext()
        stream = search.top_k_stream(list(FIG4_QUERY), FIG4_RMAX,
                                     context=ctx)
        stream.take(2)
        assert ctx.counter("communities") == 2
        assert ctx.seconds("translate") >= 0.0


class TestStageReport:
    def test_stage_table_and_breakdown(self, engine):
        from repro.analysis import stage_breakdown, stage_table
        ctx = QueryContext()
        engine.run_all(QuerySpec.comm_all(FIG4_QUERY, FIG4_RMAX), ctx)
        rows = stage_breakdown(ctx)
        assert [name for name, _, _ in rows][:2] == ["resolve",
                                                     "project"]
        assert abs(sum(share for _, _, share in rows) - 1.0) < 1e-9
        table = stage_table(ctx)
        assert "project" in table and "communities" in table

    def test_cache_effectiveness_aggregates(self, engine):
        from repro.analysis import cache_effectiveness
        contexts = []
        for _ in range(3):
            ctx = QueryContext()
            engine.project(list(FIG4_QUERY), FIG4_RMAX, ctx)
            contexts.append(ctx)
        summary = cache_effectiveness(contexts)
        assert summary["queries"] == 3.0
        assert summary["projection_runs"] == 1.0
        assert summary["cache_hits"] == 2.0
        assert summary["hit_rate"] == pytest.approx(2.0 / 3.0)
