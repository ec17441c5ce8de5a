"""Chaos: a poisoned result cache degrades to recomputation.

The ``results.cache.lookup`` failpoint fires inside
:meth:`~repro.engine.results.ResultCache.lookup` — the one place
every cached-answer path (fetch, attach, run_all, top_k, sessions)
funnels through. With it armed, the engine must keep returning
**correct** answers (recomputed, never stale or truncated), the
service must keep answering 200, and the failures must be visible as
``result_cache_errors`` — latency is the only acceptable casualty.

On a pool server the parent's cache answers first: a poisoned parent
lookup falls back to a worker, and a worker held on the old snapshot
while the parent swaps never installs its answer there.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.datasets.paper_example import (
    FIG4_QUERY,
    FIG4_RMAX,
    figure4_graph,
)
from repro.engine import QueryContext, QueryEngine, QuerySpec
from repro.parallel import ParallelQueryEngine
from repro.service import CommunityService, ServiceClient
from repro.snapshot import SnapshotStore
from repro.text.inverted_index import CommunityIndex
from repro.text.maintenance import GraphDelta, apply_delta

from chaos_helpers import wait_until

FIG4_TOTAL = 5


def _fingerprint(communities):
    return [(c.core, c.cost, c.centers, c.nodes, c.edges)
            for c in communities]


@pytest.fixture()
def engine():
    from repro.datasets.paper_example import figure4_graph
    e = QueryEngine(figure4_graph())
    e.build_index(radius=FIG4_RMAX)
    return e


def _spec(k=3):
    return QuerySpec(tuple(FIG4_QUERY), FIG4_RMAX, mode="topk", k=k)


class TestPoisonedLookup:
    def test_lookup_raise_degrades_to_recompute(self, engine):
        expected = _fingerprint(engine.top_k(_spec()))
        faults.activate("results.cache.lookup", "always:raise")
        ctx = QueryContext()
        got = engine.top_k(_spec(), ctx)
        assert _fingerprint(got) == expected
        assert ctx.counter("result_cache_errors") == 1
        assert ctx.counter("result_cache_hits") == 0
        assert engine.results.stats.errors == 1

    def test_intermittent_poison_heals(self, engine):
        expected = _fingerprint(engine.top_k(_spec()))
        faults.activate("results.cache.lookup", "nth(1):raise")
        assert _fingerprint(engine.top_k(_spec())) == expected
        # The failpoint is spent: the next repeat is a clean hit.
        ctx = QueryContext()
        assert _fingerprint(engine.top_k(_spec(), ctx)) == expected
        assert ctx.counter("result_cache_hits") == 1

    def test_comm_all_and_streams_degrade_too(self, engine):
        spec_all = QuerySpec(tuple(FIG4_QUERY), FIG4_RMAX, mode="all")
        everything = _fingerprint(engine.run_all(spec_all))
        engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX).take(2)
        faults.activate("results.cache.lookup", "always:raise")
        assert _fingerprint(engine.run_all(spec_all)) == everything
        stream = engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX)
        costs = [c.cost for c in stream.take(100)]
        assert len(costs) == FIG4_TOTAL
        assert costs == sorted(costs)
        assert engine.results.stats.errors >= 2

    def test_service_answers_200_with_errors_counted(self, engine):
        with CommunityService(engine, port=0).start() as service:
            client = ServiceClient(service.url, timeout=30.0)
            clean = client.query(list(FIG4_QUERY), FIG4_RMAX, k=3)
            assert clean["cached"] is False
            warm = client.query(list(FIG4_QUERY), FIG4_RMAX, k=3)
            assert warm["cached"] is True
            faults.activate("results.cache.lookup", "always:raise")
            poisoned = client.query(list(FIG4_QUERY), FIG4_RMAX, k=3)
            assert poisoned["cached"] is False
            assert poisoned["communities"] == clean["communities"]
            assert poisoned["stats"]["counters"][
                "result_cache_errors"] == 1
            faults.clear()
            metrics = client.metrics()
            assert "repro_result_cache_errors_total 1" in metrics


def _worker_lookups(engine):
    """Projection-cache lookups summed over the workers: one per query
    a worker runs on a projection."""
    return sum(row["cache_lookups"] for row in engine.worker_stats())


def _reference(store):
    return QueryEngine.from_snapshot(SnapshotStore(store).resolve(),
                                     result_cache_bytes=0)


class TestPooledParentCache:
    def test_poisoned_parent_lookup_falls_back_to_a_worker(
            self, fig4_store):
        spec = _spec()
        expected = _fingerprint(_reference(fig4_store).top_k(spec))
        with ParallelQueryEngine(fig4_store, workers=2) as engine:
            engine.execute(spec)               # the parent caches it
            lookups = _worker_lookups(engine)
            # Armed after the workers forked: only the parent raises.
            faults.activate("results.cache.lookup", "always:raise")
            context = QueryContext()
            got = engine.execute(spec, context)
            faults.clear()
            assert _fingerprint(got) == expected
            assert context.counter("result_cache_errors") == 1
            assert engine.results.stats.errors == 1
            assert _worker_lookups(engine) == lookups + 1

    def test_held_answer_from_the_old_snapshot_is_not_installed(
            self, fig4_store, monkeypatch):
        spec = QuerySpec.comm_k(list(FIG4_QUERY), 50, FIG4_RMAX)
        old = _reference(fig4_store).top_k(spec)
        monkeypatch.setenv("REPRO_FAILPOINTS",
                           "worker.exec=once:sleep(1.0)")
        with ParallelQueryEngine(fig4_store, workers=2) as engine, \
                ThreadPoolExecutor(1) as caller:
            held = caller.submit(engine.execute, spec)
            # A worker started the query on the old snapshot and is
            # held there while the parent swaps to a new one.
            assert wait_until(lambda: engine.pool._leases)
            dbg, index = apply_delta(
                CommunityIndex.build(figure4_graph(), FIG4_RMAX),
                GraphDelta(new_edges=[(0, 3, 0.25)]))
            SnapshotStore(fig4_store).publish(
                dbg, index, provenance={"dataset": "fig4+delta"})
            engine.load_snapshot(SnapshotStore(fig4_store).resolve())
            assert held.result() == old
            assert len(engine.results) == 0
            new = _reference(fig4_store).top_k(spec)
            assert new != old
            assert engine.execute(spec) == new
