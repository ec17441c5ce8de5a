"""Unit tests for the generation-keyed result cache
(:mod:`repro.engine.results`).

Covers the tentpole contracts: canonical keys collide exactly when
they should, an exact repeat is a pure lookup, a smaller k slices the
cached prefix, a larger k resumes the retained frontier instead of
recomputing, memory is byte-bounded LRU, and a generation swap is a
total, free invalidation.
"""

import dataclasses
import json
import pickle
import sys

import pytest

from repro.core.community import Community
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.engine import (
    CachedStream,
    QueryContext,
    QueryEngine,
    QuerySpec,
    ResultCache,
    ResultEntry,
    community_nbytes,
    result_key,
)
from repro.engine import engine as engine_module
from repro.graph.generators import random_database_graph
from repro.service.serialize import community_to_dict
from repro.text.inverted_index import CommunityIndex
from repro.text.maintenance import GraphDelta

FIG4_TOTAL = 5


@pytest.fixture()
def engine(fig4):
    e = QueryEngine(fig4)
    e.build_index(radius=FIG4_RMAX)
    return e


def _spec(k=None, mode=None, rmax=FIG4_RMAX, keywords=FIG4_QUERY,
          algorithm="pd"):
    mode = mode or ("topk" if k is not None else "all")
    return QuerySpec(tuple(keywords), rmax, mode=mode, k=k,
                     algorithm=algorithm)


def _fingerprint(communities):
    return [(c.core, c.cost, c.centers, c.nodes, c.edges)
            for c in communities]


class TestCanonicalKeys:
    def test_keyword_order_and_case_collide(self):
        a = QuerySpec(("XML", "jim"), 8.0, mode="topk", k=3)
        b = QuerySpec(("Jim", "xml"), 8.0, mode="topk", k=3)
        assert a.cache_key() == b.cache_key()

    def test_rmax_spellings_collide(self):
        """The satellite: ``0.5`` and ``0.50`` are one cache line."""
        a = QuerySpec(("a",), 0.5, mode="topk", k=3)
        b = QuerySpec(("a",), 0.50, mode="topk", k=3)
        assert a.cache_key() == b.cache_key()
        assert result_key(a.keywords, 0.5, "pd", "sum", "topk") \
            == result_key(b.keywords, 0.50, "pd", "sum", "topk")

    def test_k_changes_cache_key_but_not_result_key(self):
        a = QuerySpec(("a",), 8.0, mode="topk", k=2)
        b = QuerySpec(("a",), 8.0, mode="topk", k=4)
        assert a.cache_key() != b.cache_key()
        assert result_key(a.keywords, a.rmax, "pd", "sum", "topk") \
            == result_key(b.keywords, b.rmax, "pd", "sum", "topk")

    def test_every_dimension_separates_keys(self):
        base = result_key(("a",), 8.0, "pd", "sum", "topk")
        assert result_key(("b",), 8.0, "pd", "sum", "topk") != base
        assert result_key(("a",), 4.0, "pd", "sum", "topk") != base
        assert result_key(("a",), 8.0, "naive", "sum", "topk") != base
        assert result_key(("a",), 8.0, "pd", "max", "topk") != base
        assert result_key(("a",), 8.0, "pd", "sum", "all") != base


class TestPrefixReuse:
    def test_exact_repeat_is_pure_lookup(self, engine):
        ctx = QueryContext()
        cold = engine.top_k(_spec(k=3), ctx)
        warm = engine.top_k(_spec(k=3), ctx)
        assert _fingerprint(cold) == _fingerprint(warm)
        assert ctx.counter("result_cache_misses") == 1
        assert ctx.counter("result_cache_hits") == 1
        assert ctx.counter("result_cache_extensions") == 0

    def test_smaller_k_slices_the_prefix(self, engine):
        cold = engine.top_k(_spec(k=4))
        ctx = QueryContext()
        sliced = engine.top_k(_spec(k=2), ctx)
        assert _fingerprint(sliced) == _fingerprint(cold[:2])
        assert ctx.counter("result_cache_hits") == 1
        assert ctx.counter("result_cache_extensions") == 0

    def test_larger_k_resumes_the_frontier(self, engine, fig4):
        engine.top_k(_spec(k=2))
        ctx = QueryContext()
        extended = engine.top_k(_spec(k=4), ctx)
        assert ctx.counter("result_cache_extensions") == 1
        assert ctx.counter("result_cache_misses") == 0
        # Byte-identical to a cold k=4 on a fresh engine.
        fresh = QueryEngine(fig4)
        fresh.build_index(radius=FIG4_RMAX)
        assert _fingerprint(extended) \
            == _fingerprint(fresh.top_k(_spec(k=4)))

    def test_comm_all_caches_complete_answers_only(self, engine):
        engine.top_k(_spec(k=2))          # ranked prefix, incomplete
        ctx = QueryContext()
        everything = engine.run_all(_spec(), ctx)
        assert len(everything) == FIG4_TOTAL
        # The topk prefix entry did not (and must not) answer COMM-all.
        assert ctx.counter("result_cache_misses") == 1
        again = engine.run_all(_spec(), ctx)
        assert ctx.counter("result_cache_hits") == 1
        assert _fingerprint(again) == _fingerprint(everything)

    def test_overlong_k_marks_entry_complete(self, engine):
        ctx = QueryContext()
        everything = engine.top_k(_spec(k=100), ctx)
        assert len(everything) == FIG4_TOTAL
        again = engine.top_k(_spec(k=100), ctx)
        assert _fingerprint(again) == _fingerprint(everything)
        assert ctx.counter("result_cache_hits") == 1
        assert ctx.counter("result_cache_extensions") == 0

    def test_budget_capable_backends_bypass_the_cache(self, engine):
        ctx = QueryContext()
        engine.top_k(_spec(k=2, algorithm="bu"), ctx)
        engine.top_k(_spec(k=2, algorithm="bu"), ctx)
        assert ctx.counter("result_cache_misses") == 0
        assert ctx.counter("result_cache_hits") == 0
        assert len(engine.results) == 0


class TestOfferedPrefixes:
    """A prefix computed in another process (a pool worker's answer)
    only ever grows the entry it lands on."""

    def test_longer_prefix_grows_the_entry_and_keeps_its_stream(
            self, engine, fig4):
        reference = QueryEngine(fig4, result_cache_bytes=0)
        reference.build_index(radius=FIG4_RMAX)
        full = reference.top_k(_spec(k=FIG4_TOTAL))
        engine.top_k(_spec(k=2))
        key = result_key(tuple(FIG4_QUERY), FIG4_RMAX, "pd", "sum",
                         "topk")
        entry = engine.results.lookup(key, engine.generation)
        stream = entry.stream
        engine.results.offer(key, engine.generation, full[:4],
                             complete=False)
        engine.results.offer(key, engine.generation, full[:1],
                             complete=False)
        assert entry.stream is stream and entry.stream.emitted == 2
        assert _fingerprint(entry.prefix) == _fingerprint(full[:4])
        assert engine.results.bytes == entry.nbytes
        # The stream replays the two offered answers it never
        # produced, then extends: the answer is the uncached one.
        context = QueryContext()
        got = engine.top_k(_spec(k=FIG4_TOTAL), context)
        assert _fingerprint(got) == _fingerprint(full)
        assert context.counter("result_cache_extensions") == 1

    def test_offer_under_another_generation_replaces_the_entry(self):
        cache = ResultCache()
        old = ResultEntry("k", "g1", stream=object())
        cache.install(old)
        cache.offer("k", "g2", [], complete=True)
        assert cache.lookup("k", "g2").complete


class TestInvalidation:
    def test_delta_swap_invalidates(self, engine, fig4):
        engine.top_k(_spec(k=3))
        assert len(engine.results) == 1
        engine.apply_delta(GraphDelta(
            new_nodes=[({"a"}, "extra", None)],
            new_edges=[(fig4.n, 0, 1.0), (0, fig4.n, 1.0)]))
        assert len(engine.results) == 0
        assert engine.results.stats.invalidations == 1
        ctx = QueryContext()
        engine.top_k(_spec(k=3), ctx)
        assert ctx.counter("result_cache_misses") == 1

    @pytest.mark.parametrize("k", [None, 3], ids=["all", "topk"])
    def test_delta_after_the_lookup_reaches_neither_answer_nor_entry(
            self, engine, fig4, monkeypatch, k):
        """A query is looked up, computed and installed on one capture
        of the engine state: a delta that lands between its lookup
        and its compute changes neither the answer nor the entry it
        installs, both the pre-delta state's."""
        before = QueryEngine(fig4, result_cache_bytes=0)
        before.build_index(radius=FIG4_RMAX)
        want = _fingerprint(before.execute(_spec(k=k)))
        generation = engine.generation
        fetch = engine.results.fetch

        def fetch_then_delta(*args, **kwargs):
            served = fetch(*args, **kwargs)
            engine.apply_delta(GraphDelta(
                new_nodes=[({"a"}, "extra", None)],
                new_edges=[(fig4.n, 0, 1.0), (0, fig4.n, 1.0)]))
            return served

        monkeypatch.setattr(engine.results, "fetch", fetch_then_delta)
        answer = engine.execute(_spec(k=k))
        assert engine.generation != generation
        assert _fingerprint(answer) == want
        entry = engine.results.lookup(
            result_key(FIG4_QUERY, FIG4_RMAX, "pd", "sum",
                       "all" if k is None else "topk"), generation)
        assert _fingerprint(entry.prefix) == want
        # The delta does change the answer: the post-delta state's
        # COMM-all differs from the one computed and installed.
        after = QueryEngine(engine.dbg, engine.index,
                            result_cache_bytes=0)
        assert _fingerprint(after.run_all(_spec())) \
            != _fingerprint(before.run_all(_spec()))

    def test_stale_entry_dropped_on_sight(self):
        cache = ResultCache(1 << 20)
        cache.install(ResultEntry("k", "g1", prefix=[], complete=True))
        assert cache.lookup("k", "g2") is None
        assert cache.stats.stale_drops == 1
        assert "k" not in cache


class TestByteBudget:
    def _community(self, i):
        return Community(core=(i,), cost=float(i), centers=(i,),
                         pnodes=(i,), nodes=(i,), edges=())

    def test_lru_eviction_by_bytes(self):
        one = self._community(1)
        per_entry = 512 + community_nbytes(one)
        cache = ResultCache(2 * per_entry)
        for name in ("a", "b"):
            cache.install(ResultEntry(name, "g", prefix=[one],
                                      complete=True))
        assert cache.keys() == ("a", "b")
        cache.lookup("a", "g")            # touch: b becomes LRU
        cache.install(ResultEntry("c", "g", prefix=[one],
                                  complete=True))
        assert cache.stats.evictions == 1
        assert cache.keys() == ("a", "c")
        assert cache.bytes == 2 * per_entry

    def test_bytes_track_install_and_invalidate(self):
        cache = ResultCache(1 << 20)
        one = self._community(1)
        cache.install(ResultEntry("a", "g", prefix=[one],
                                  complete=True))
        assert cache.bytes == 512 + community_nbytes(one)
        cache.invalidate()
        assert cache.bytes == 0
        assert len(cache) == 0

    def test_evicted_entry_keeps_serving_live_streams(self, engine):
        stream = engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX)
        assert isinstance(stream, CachedStream)
        first = stream.take(2)
        engine.results.invalidate()       # forget it for new lookups
        rest = stream.take(100)
        costs = [c.cost for c in first + rest]
        assert len(first + rest) == FIG4_TOTAL
        assert costs == sorted(costs)


def _held_bytes(community):
    """``sys.getsizeof`` over the objects one community holds (each
    counted once), plus the JSON text the service keeps on it."""
    seen = set()

    def walk(obj):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        size = sys.getsizeof(obj)
        if isinstance(obj, tuple):
            size += sum(walk(item) for item in obj)
        return size

    objects = walk(community) + sys.getsizeof(vars(community)) + sum(
        walk(getattr(community, f.name))
        for f in dataclasses.fields(community))
    return objects + len(json.dumps(community_to_dict(community)))


def _random_answers():
    answers = []
    for seed in range(12):
        dbg = random_database_graph(10 + 2 * seed, 0.2, ["a", "b"],
                                    seed=seed)
        if not all(dbg.nodes_with_keyword(kw) for kw in "ab"):
            continue
        engine = QueryEngine(dbg)
        engine.build_index(radius=8.0)
        answers += engine.run_all(QuerySpec(("a", "b"), 8.0))
    return answers


class TestChargeTracksMemory:
    """The charge covers a community's objects plus its text, from a
    formula over tuple lengths, within ±25% of a ``getsizeof`` walk."""

    @pytest.mark.parametrize("dataset", ["fig4", "random", "tiny-dblp"])
    def test_charge_within_a_quarter_of_the_walk(self, dataset, engine,
                                                 tiny_dblp):
        if dataset == "fig4":
            answers = engine.run_all(_spec())
        elif dataset == "random":
            answers = _random_answers()
        else:
            dblp = QueryEngine(tiny_dblp[1])
            dblp.build_index(radius=4.0)
            answers = dblp.top_k(QuerySpec(("data", "model"), 4.0,
                                           mode="topk", k=50))
        assert len(answers) >= 5
        # A pool server's parent caches answers unpickled from a
        # worker, whose tuples share no int objects.
        for communities in (answers,
                            pickle.loads(pickle.dumps(answers))):
            held = sum(_held_bytes(c) for c in communities)
            charged = sum(community_nbytes(c) for c in communities)
            assert 0.75 * held <= charged <= 1.25 * held, \
                (dataset, charged, held)


class TestDisabledCache:
    def test_zero_budget_disables_everything(self, fig4):
        engine = QueryEngine(fig4, result_cache_bytes=0)
        engine.build_index(radius=FIG4_RMAX)
        assert not engine.results.enabled
        ctx = QueryContext()
        engine.top_k(_spec(k=3), ctx)
        engine.top_k(_spec(k=3), ctx)
        assert ctx.counter("result_cache_hits") == 0
        assert ctx.counter("result_cache_misses") == 0
        assert len(engine.results) == 0
        # A stream is a view over an entry of its own, never installed.
        stream = engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX)
        assert len(stream.take(100)) == FIG4_TOTAL
        assert len(engine.results) == 0


class TestCachedStreamViews:
    def test_views_keep_private_cursors(self, engine):
        a = engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX)
        b = engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX)
        first_a = a.take(3)
        first_b = b.take(3)
        assert _fingerprint(first_a) == _fingerprint(first_b)
        assert a.emitted == b.emitted == 3
        rest_a = a.take(100)
        assert a.exhausted
        assert not b.exhausted
        assert _fingerprint(b.take(100)) == _fingerprint(rest_a)
        assert b.exhausted
        assert b.next_community() is None

    def test_second_view_pays_no_enumeration(self, engine):
        a = engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX)
        a.take(3)
        ctx = QueryContext()
        b = engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX,
                                context=ctx)
        assert ctx.counter("result_cache_hits") == 1
        b.take(3)
        assert ctx.seconds("enumerate") == 0.0
        assert ctx.counter("projection_runs") == 0
        assert ctx.counter("communities") == 3

    def test_iteration_protocol(self, engine):
        stream = engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX)
        assert len(list(stream)) == FIG4_TOTAL

    def test_negative_k_rejected(self, engine):
        from repro.exceptions import QueryError
        stream = engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX)
        with pytest.raises(QueryError):
            stream.take(-1)


class TestOnePumpPath:
    """Every PDk stream is a view over a result entry, pumped by one
    loop, with the cache on or off."""

    @pytest.mark.parametrize("use_projection", [True, False],
                             ids=["projected", "unprojected"])
    @pytest.mark.parametrize("cache_bytes", [None, 0],
                             ids=["cache-on", "cache-off"])
    def test_stream_is_the_cold_answer_and_counts_it(
            self, fig4, cache_bytes, use_projection):
        reference = QueryEngine(fig4, result_cache_bytes=0)
        reference.build_index(radius=FIG4_RMAX)
        engine = QueryEngine(fig4, result_cache_bytes=cache_bytes)
        engine.build_index(radius=FIG4_RMAX)
        ctx = QueryContext()
        stream = engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX,
                                     use_projection=use_projection,
                                     context=ctx)
        cold = reference.top_k(QuerySpec(
            tuple(FIG4_QUERY), FIG4_RMAX, mode="topk", k=3,
            use_projection=use_projection))
        assert _fingerprint(stream.take(3)) == _fingerprint(cold)
        assert ctx.counter("communities") == 3

    def test_paging_past_an_offered_prefix_translates_only_new_answers(
            self, monkeypatch):
        keywords, rmax = ["x", "y"], 6.0
        dbg = random_database_graph(24, 0.12, keywords,
                                    keyword_prob=0.3, seed=0,
                                    bidirected=True)
        index = CommunityIndex.build(dbg, rmax)
        reference = QueryEngine(dbg, index, result_cache_bytes=0)
        engine = QueryEngine(dbg, index)
        want = reference.top_k(QuerySpec.comm_k(keywords, 10, rmax))
        engine.results.offer(
            result_key(tuple(keywords), rmax, "pd", "sum", "topk"),
            engine.generation, want[:5], complete=False)
        translated = []
        translate = engine_module.translate_community

        def counting(*args, **kwargs):
            translated.append(1)
            return translate(*args, **kwargs)

        monkeypatch.setattr(engine_module, "translate_community",
                            counting)
        stream = engine.top_k_stream(keywords, rmax)
        pages = stream.take(5) + stream.take(5)
        assert _fingerprint(pages) == _fingerprint(want)
        # The rebuilt stream replays the 5 offered answers untranslated.
        assert len(translated) == 5


class TestWarm:
    def test_warm_computes_then_skips(self, engine):
        specs = [_spec(k=3), _spec(),
                 _spec(k=3, algorithm="bu")]      # uncacheable
        assert engine.warm(specs) == 2
        assert engine.warm(specs) == 0            # already warm
        ctx = QueryContext()
        engine.top_k(_spec(k=3), ctx)
        assert ctx.counter("result_cache_hits") == 1

    def test_warm_skips_bad_specs(self, engine):
        bad = QuerySpec(("nosuchkeyword",), FIG4_RMAX, mode="topk",
                        k=2)
        assert engine.warm([bad, _spec(k=2)]) == 1
