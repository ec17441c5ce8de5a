"""Unit tests for session leases (:mod:`repro.service.sessions`)."""

import json
import threading

import pytest

from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.engine import QueryEngine
from repro.exceptions import QueryError
from repro.service import CommunityService
from repro.service.errors import NotFound, Overloaded, SessionGone
from repro.service.sessions import SessionManager
from repro.text.maintenance import GraphDelta

FIG4_TOTAL = 5


class FakeClock:
    """A controllable monotonic clock for TTL tests (no sleeping)."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        """Move time forward."""
        self.now += seconds


@pytest.fixture()
def engine(fig4):
    e = QueryEngine(fig4)
    e.build_index(radius=FIG4_RMAX)
    return e


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def manager(engine, clock):
    return SessionManager(engine, ttl_seconds=60.0, max_sessions=4,
                          clock=clock)


class TestLeaseLifecycle:
    def test_create_then_next_streams_in_rank_order(self, manager):
        lease = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        first, _ = manager.next(lease.id, 2)
        rest, _ = manager.next(lease.id, 10)
        costs = [c.cost for c in first + rest]
        assert len(first) == 2
        assert len(rest) == FIG4_TOTAL - 2
        assert costs == sorted(costs)

    def test_enlargement_charges_no_project_time(self, manager):
        """The acceptance property, at the manager level: k=10 -> 50
        adds enumerate/translate work but zero project work."""
        lease = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        manager.next(lease.id, 2)
        project_after_first = lease.context.seconds("project")
        runs_after_first = lease.context.counter("projection_runs")
        manager.next(lease.id, 3)             # enlarge
        assert lease.context.seconds("project") == project_after_first
        assert lease.context.counter("projection_runs") \
            == runs_after_first
        assert lease.context.counter("communities") == FIG4_TOTAL

    def test_unknown_id_is_not_found(self, manager):
        with pytest.raises(NotFound):
            manager.next("deadbeef", 1)

    def test_close_releases_lease(self, manager):
        lease = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        manager.close(lease.id)
        assert manager.count == 0
        with pytest.raises(NotFound):
            manager.next(lease.id, 1)
        manager.close(lease.id)               # idempotent

    def test_negative_k_rejected(self, manager):
        lease = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        with pytest.raises(QueryError):
            manager.next(lease.id, -1)

    def test_session_cap_sheds(self, manager):
        for _ in range(4):
            manager.create(list(FIG4_QUERY), FIG4_RMAX)
        with pytest.raises(Overloaded):
            manager.create(list(FIG4_QUERY), FIG4_RMAX)

    def test_sessions_share_projection_via_cache(self, manager,
                                                 engine):
        """The second same-spec session attaches to the first one's
        result-cache entry: no projection work, no enumeration — it
        rides the shared ranked prefix."""
        a = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        b = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        assert a.context.counter("projection_runs") == 1
        assert b.context.counter("projection_runs") == 0
        assert b.context.counter("result_cache_hits") == 1
        assert engine.results.stats.hits >= 1
        first = a.stream.take(2)
        second = b.stream.take(2)
        assert [(c.core, c.cost) for c in first] \
            == [(c.core, c.cost) for c in second]


class TestPrefixReuse:
    def test_session_after_warm_query_enumerates_nothing(
            self, manager, engine):
        """The satellite regression: a session opened after a warm
        ``/query`` serves the cached prefix from ``next`` with zero
        enumerate-stage time until the prefix is exhausted."""
        from repro.engine import QuerySpec

        warm = engine.top_k(QuerySpec(tuple(FIG4_QUERY), FIG4_RMAX,
                                      mode="topk", k=3))
        lease = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        assert lease.context.counter("result_cache_hits") == 1
        communities, _ = manager.next(lease.id, 3)
        assert [(c.core, c.cost) for c in communities] \
            == [(c.core, c.cost) for c in warm]
        assert lease.context.seconds("enumerate") == 0.0
        assert lease.context.seconds("project") == 0.0
        assert lease.context.counter("projection_runs") == 0
        # Walking past the cached frontier now pays (only) the tail.
        rest, _ = manager.next(lease.id, 10)
        assert len(rest) == FIG4_TOTAL - 3
        assert lease.context.counter("result_cache_extensions") == 1
        costs = [c.cost for c in communities + rest]
        assert costs == sorted(costs)


class TestTTL:
    def test_expired_lease_is_gone(self, manager, clock):
        lease = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        clock.advance(61.0)
        with pytest.raises(SessionGone, match="expired"):
            manager.next(lease.id, 1)
        assert manager.count == 0
        assert manager.stats.expired == 1

    @pytest.mark.parametrize("ttl", [-5.0, 0.0, float("nan")])
    def test_non_positive_ttl_rejected(self, manager, ttl):
        with pytest.raises(QueryError):
            manager.create(list(FIG4_QUERY), FIG4_RMAX,
                           ttl_seconds=ttl)
        assert manager.count == 0

    def test_next_slides_the_lease(self, manager, clock):
        lease = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        clock.advance(50.0)
        manager.next(lease.id, 1)             # touch at t+50
        clock.advance(50.0)                   # t+100 < touch+60
        communities, _ = manager.next(lease.id, 1)
        assert len(communities) == 1

    def test_sweep_collects_expired(self, manager, clock):
        manager.create(list(FIG4_QUERY), FIG4_RMAX)
        manager.create(list(FIG4_QUERY), FIG4_RMAX,
                       ttl_seconds=600.0)     # outlives the sweep
        clock.advance(61.0)
        assert manager.sweep() == 1
        assert manager.count == 1

    def test_expired_lease_frees_cap_slot(self, manager, clock):
        for _ in range(4):
            manager.create(list(FIG4_QUERY), FIG4_RMAX)
        clock.advance(61.0)
        # create() sweeps first, so the table has room again.
        lease = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        assert manager.count == 1
        assert lease is not None


class TestGenerationChecks:
    def test_apply_delta_makes_lease_stale(self, manager, engine,
                                           fig4):
        lease = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        manager.next(lease.id, 1)
        delta = GraphDelta(new_nodes=[({"a"}, "extra", None)],
                           new_edges=[(fig4.n, 0, 1.0),
                                      (0, fig4.n, 1.0)])
        engine.apply_delta(delta)
        with pytest.raises(SessionGone, match="stale"):
            manager.next(lease.id, 1)
        assert manager.stats.stale_dropped == 1
        assert manager.count == 0

    def test_index_swap_makes_lease_stale(self, manager, engine):
        lease = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        engine.index = engine.index           # any swap bumps
        with pytest.raises(SessionGone):
            manager.next(lease.id, 1)

    def test_fresh_session_after_delta_serves_new_graph(
            self, manager, engine, fig4):
        old = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        delta = GraphDelta(new_nodes=[({"a"}, "extra", None)],
                           new_edges=[(fig4.n, 0, 1.0),
                                      (0, fig4.n, 1.0)])
        engine.apply_delta(delta)
        with pytest.raises(SessionGone):
            manager.next(old.id, 1)
        fresh = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        communities, _ = manager.next(fresh.id, 100)
        # The new "extra" node carries keyword a, so the enlarged
        # graph has strictly more communities than fig4's 5.
        assert len(communities) > FIG4_TOTAL

    def test_validation_errors(self, engine):
        with pytest.raises(QueryError):
            SessionManager(engine, ttl_seconds=0.0)
        with pytest.raises(QueryError):
            SessionManager(engine, max_sessions=0)

    def test_stats_as_dict_covers_all_counters(self, manager):
        lease = manager.create(list(FIG4_QUERY), FIG4_RMAX)
        manager.close(lease.id)
        flat = manager.stats.as_dict()
        assert flat["sessions_created"] == 1.0
        assert flat["sessions_closed"] == 1.0
        assert set(flat) == {"sessions_created", "sessions_closed",
                             "sessions_expired",
                             "sessions_stale_dropped"}


def events(service, name):
    """One ``repro_query_events_total`` counter of ``service``."""
    prefix = f'repro_query_events_total{{event="{name}"}} '
    for line in service.render_metrics().splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return 0.0


class TestConcurrentPages:
    def test_each_page_reports_and_counts_only_its_own(self, engine):
        """Two ``next(2)`` calls on one session, forced to interleave:
        each page reads its position and stats under the lease lock,
        so the pages say 2 and 4 and the metrics count 4 communities
        (not 8, from two stale "before" snapshots)."""
        with CommunityService(engine, workers=2) as service:
            status, _, body, _ = service.handle(
                "POST", "/sessions", json.dumps(
                    {"keywords": list(FIG4_QUERY),
                     "rmax": FIG4_RMAX}).encode())
            assert status == 200
            session = json.loads(body)["session"]
            # Both calls are inside the service's job before either
            # pages, and neither replies before both paged.
            barrier = threading.Barrier(2, timeout=10.0)
            paged = service.sessions.next

            def next_in_step(session_id, k):
                barrier.wait()
                try:
                    return paged(session_id, k)
                finally:
                    barrier.wait()

            service.sessions.next = next_in_step
            before = events(service, "communities")
            replies = []

            def page():
                replies.append(service.handle(
                    "POST", f"/sessions/{session}/next", b'{"k": 2}'))

            threads = [threading.Thread(target=page) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert [status for status, *_ in replies] == [200, 200]
            pages = [json.loads(body) for _, _, body, _ in replies]
            assert sorted(p["emitted"] for p in pages) == [2, 4]
            assert sum(p["returned"] for p in pages) == 4
            cores = [c["core"] for p in pages for c in p["communities"]]
            assert len({tuple(core) for core in cores}) == 4
            assert events(service, "communities") - before == 4
            counted = sorted(p["stats"]["counters"]["communities"]
                             for p in pages)
            assert counted == [2, 4]
