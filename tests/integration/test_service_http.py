"""Socket-level integration tests for the community-query service.

A real :class:`~repro.service.server.CommunityService` binds an
ephemeral port; every request here travels through HTTP via
:class:`~repro.service.client.ServiceClient`. Covers the three
acceptance properties:

* interactive enlargement (k=10 -> more) re-runs neither Algorithm 6
  nor the PDk seeding — asserted on the session's cumulative
  ``QueryContext`` stats coming back over the wire;
* a session leased before ``apply_delta`` answers ``410 Gone``
  afterwards, and fresh sessions re-warm the projection cache;
* concurrent load past the worker pool sheds with 429/503 instead of
  queueing unboundedly.
"""

import threading
import time

import pytest

from repro.core.search import CommunitySearch
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.engine import QueryEngine
from repro.engine.registry import AlgorithmSpec, default_registry
from repro.service import (
    BadRequest,
    CommunityService,
    DeadlineExceeded,
    NotFound,
    Overloaded,
    ServiceClient,
    SessionGone,
)
from repro.text.maintenance import GraphDelta

FIG4_TOTAL = 5


@pytest.fixture()
def engine(fig4):
    e = QueryEngine(fig4)
    e.build_index(radius=FIG4_RMAX)
    return e


@pytest.fixture()
def service(engine):
    with CommunityService(engine, port=0).start() as svc:
        yield svc


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout=30.0)


class TestQueryEndpoint:
    def test_topk_matches_in_process_answers(self, client, fig4):
        search = CommunitySearch(fig4)
        search.build_index(radius=FIG4_RMAX)
        expected = search.top_k(list(FIG4_QUERY), 3, FIG4_RMAX)
        got = client.query_communities(list(FIG4_QUERY), FIG4_RMAX,
                                       k=3)
        assert got == expected

    def test_comm_all_without_k(self, client):
        response = client.query(list(FIG4_QUERY), FIG4_RMAX)
        assert response["count"] == FIG4_TOTAL
        assert response["query"]["mode"] == "all"

    def test_baseline_algorithm_over_http(self, client):
        response = client.query(list(FIG4_QUERY), FIG4_RMAX, k=3,
                                algorithm="bu")
        assert response["count"] == 3

    def test_labels_round_trip(self, client, fig4):
        response = client.query(list(FIG4_QUERY), FIG4_RMAX, k=1,
                                labels=True)
        community = response["communities"][0]
        assert community["labels"][str(community["nodes"][0])] \
            == fig4.label_of(community["nodes"][0])

    def test_stats_ride_along(self, client):
        response = client.query(list(FIG4_QUERY), FIG4_RMAX, k=2)
        assert response["stats"]["counters"]["communities"] == 2
        assert "project" in response["stats"]["timings"]

    def test_unknown_keyword_is_400(self, client):
        with pytest.raises(BadRequest):
            client.query(["nosuchkeyword"], FIG4_RMAX, k=1)

    def test_malformed_body_is_400(self, client):
        with pytest.raises(BadRequest):
            client.request("POST", "/query", {"rmax": 8.0})

    def test_unknown_route_is_404(self, client):
        with pytest.raises(NotFound):
            client.request("GET", "/nope")

    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["generation"] == "g1"
        assert health["snapshot"] is None   # engine built in-memory


class TestInteractiveSessions:
    def test_enlargement_is_free(self, client):
        """k=10 then enlarge: zero additional project-stage time and
        zero additional projection runs — PDk resumed, Exp-3 style."""
        with client.open_session(list(FIG4_QUERY), FIG4_RMAX) as s:
            first = s.next(2)
            stats_first = s.last_stats
            project_seconds = stats_first["timings"].get("project",
                                                         0.0)
            projection_runs = stats_first["counters"].get(
                "projection_runs", 0)

            more = s.next(2)              # enlarge k
            stats_more = s.last_stats
            assert len(first) == 2 and len(more) == 2
            # The cumulative project stage did not move at all.
            assert stats_more["timings"].get("project", 0.0) \
                == project_seconds
            assert stats_more["counters"].get("projection_runs", 0) \
                == projection_runs
            # But enumerate kept accruing (real work happened).
            assert stats_more["counters"]["communities"] == 4
            costs = [c.cost for c in first + more]
            assert costs == sorted(costs)

    def test_session_exhaustion_over_http(self, client):
        with client.open_session(list(FIG4_QUERY), FIG4_RMAX) as s:
            everything = s.next(100)
            assert len(everything) == FIG4_TOTAL
            assert s.exhausted
            assert s.next(10) == []

    def test_unknown_session_404(self, client):
        with pytest.raises(NotFound):
            client.request("POST", "/sessions/deadbeef/next",
                           {"k": 1})

    def test_closed_session_404(self, client):
        session = client.open_session(list(FIG4_QUERY), FIG4_RMAX)
        session.close()
        with pytest.raises(NotFound):
            session.next(1)

    @pytest.mark.parametrize("field", [
        {"aggregate": []}, {"rmax": float("nan")},
        {"ttl_seconds": -5}, {"ttl_seconds": 0},
    ], ids=["list-aggregate", "nan-rmax", "negative-ttl", "zero-ttl"])
    def test_malformed_session_field_is_400(self, client, field):
        with pytest.raises(BadRequest):
            client.request("POST", "/sessions", {
                "keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
                **field})

    def test_short_ttl_session_expires_410(self, client):
        session = client.open_session(list(FIG4_QUERY), FIG4_RMAX,
                                      ttl_seconds=0.05)
        time.sleep(0.2)
        with pytest.raises(SessionGone):
            session.next(1)


class TestDeltaInvalidation:
    def test_delta_410_and_cache_rewarm(self, client, service, fig4):
        """The satellite integration property: a lease goes 410 after
        apply_delta, and fresh sessions over the same keywords warm
        then hit the (re-warmed) projection cache."""
        session = client.open_session(list(FIG4_QUERY), FIG4_RMAX)
        assert len(session.next(2)) == 2

        delta = GraphDelta(new_nodes=[({"a"}, "extra", None)],
                           new_edges=[(fig4.n, 0, 1.0),
                                      (0, fig4.n, 1.0)])
        service.engine.apply_delta(delta)

        with pytest.raises(SessionGone):
            session.next(1)

        # First fresh session re-projects against the grown graph...
        rewarm = client.open_session(list(FIG4_QUERY), FIG4_RMAX)
        assert rewarm.last_stats["counters"].get(
            "projection_runs", 0) == 1
        # ...and the next one over the same keywords attaches to the
        # re-warmed result-cache entry (no projection, no enumeration).
        hot = client.open_session(list(FIG4_QUERY), FIG4_RMAX)
        assert hot.last_stats["counters"].get(
            "projection_runs", 0) == 0
        assert hot.last_stats["counters"].get(
            "result_cache_hits", 0) == 1
        # The fresh lease streams the *new* graph: the added keyword
        # node yields strictly more communities than fig4's 5.
        assert len(rewarm.next(100)) > FIG4_TOTAL
        # And the wire-visible metrics recorded the churn.
        metrics = client.metrics()
        assert "repro_sessions_stale_dropped_total 1" in metrics
        assert "repro_engine_generation 2" in metrics


class TestMetricsEndpoint:
    def test_metrics_expose_stages_cache_queue_and_latency(
            self, client):
        client.query(list(FIG4_QUERY), FIG4_RMAX, k=2)
        client.query(list(FIG4_QUERY), FIG4_RMAX, k=2)   # cache hit
        text = client.metrics()
        assert 'repro_stage_seconds_total{stage="project"}' in text
        assert 'repro_stage_seconds_total{stage="enumerate"}' in text
        assert 'repro_query_events_total{event="communities"} 4' \
            in text
        # Every CacheStats counter is present (the as_dict audit).
        for name in ("hits", "misses", "evictions", "invalidations",
                     "stale_drops", "lookups"):
            assert f"repro_projection_cache_{name}_total" in text
        assert "repro_projection_cache_hit_rate" in text
        assert "repro_queue_depth 0" in text
        assert "repro_in_flight 0" in text
        assert 'repro_requests_total{path="/query",status="200"} 2' \
            in text
        assert 'repro_request_seconds_count{path="/query"} 2' in text

    def test_metrics_content_type_is_prometheus_text(self, service):
        import urllib.request
        with urllib.request.urlopen(service.url + "/metrics") as resp:
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")


class TestSheddingOverHttp:
    def test_load_at_2x_pool_sheds_429_503(self, fig4):
        """The acceptance load test over a real socket: 2x the pool's
        capacity in simultaneous requests -> excess sheds fast with
        429/503, the admitted remainder completes."""
        registry = default_registry()

        def slow_all(dbg, keywords, rmax, *, node_lists=None,
                     aggregate="sum", budget_seconds=None, stats=None):
            time.sleep(0.3)
            return iter([])

        def slow_top_k(dbg, keywords, k, rmax, *, node_lists=None,
                       aggregate="sum", budget_seconds=None,
                       stats=None):
            time.sleep(0.3)
            return []

        registry.register(AlgorithmSpec("slow", slow_all, slow_top_k))
        engine = QueryEngine(fig4, registry=registry)
        engine.build_index(radius=FIG4_RMAX)
        capacity = 2 + 2                      # workers + queue depth
        with CommunityService(engine, port=0, workers=2,
                              queue_depth=2).start() as service:
            client = ServiceClient(service.url, timeout=30.0)
            outcomes = []
            lock = threading.Lock()
            barrier = threading.Barrier(2 * capacity)

            def hit():
                barrier.wait()
                try:
                    client.query(list(FIG4_QUERY), FIG4_RMAX, k=1,
                                 algorithm="slow",
                                 deadline_seconds=10.0)
                    outcome = 200
                except Overloaded:
                    outcome = 429
                except DeadlineExceeded:
                    outcome = 503
                with lock:
                    outcomes.append(outcome)

            threads = [threading.Thread(target=hit)
                       for _ in range(2 * capacity)]
            start = time.monotonic()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            elapsed = time.monotonic() - start

            assert len(outcomes) == 2 * capacity
            assert outcomes.count(200) >= 2
            shed = outcomes.count(429) + outcomes.count(503)
            assert shed >= 2
            # Unbounded queueing would serialize 8 x 0.3s behind 2
            # workers; shedding keeps the burst well under that.
            assert elapsed < 8 * 0.3
            metrics = client.metrics()
            assert "repro_admission_shed_queue_full_total" in metrics
            status_lines = [line for line in metrics.splitlines()
                            if line.startswith("repro_requests_total")]
            assert any('status="429"' in line or 'status="503"' in line
                       for line in status_lines)
