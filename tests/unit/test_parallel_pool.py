"""Worker-pool lifecycle, ``/batch`` semantics, and pool metrics.

Everything here drives real worker *processes* over a published fig4
snapshot, but stays socketless: HTTP-level assertions go through
:meth:`~repro.service.server.CommunityService.handle` directly. The
acceptance properties covered:

* pool lifecycle — start (ping-ready), round-robined queries, a
  killed worker fails its pending futures with
  :class:`~repro.exceptions.WorkerCrashedError` and is respawned,
  clean shutdown;
* answers through the pool are exactly the local engine's answers —
  ``POST /query`` envelopes are byte-identical (modulo wall-clock
  fields) with and without ``--workers``;
* the pool engine *is* a ``QueryEngine``, and the parent's half of a
  shared operation stays in the parent: ``warm`` fills the parent's
  result cache, the only one (sessions attach to it), from worker
  answers, with no enumeration in the parent and each spec computed
  on one worker once;
* the parent's result cache answers repeats and smaller-k slices
  with no pool task, installs a worker's answer only when the worker
  computed it on the parent's state (a WAL-logged delta state
  included, never an unlogged one), and a session opened on a
  worker's prefix pages past it exactly, each community computed
  once;
* ``POST /batch`` preserves request order and validates its body;
* ``/metrics`` exposes one ``repro_worker_info`` row per worker and
  ``POST /admin/reload`` moves every row to the new snapshot id;
* the :class:`~repro.engine.cache.ProjectionCache` counters stay
  exact under thread contention (they increment under the cache
  lock).
"""

import json
import threading
import time
from concurrent.futures import Future

import pytest

from repro.datasets.paper_example import (
    FIG4_QUERY,
    FIG4_RMAX,
    figure4_graph,
)
from repro.engine import QueryEngine, QuerySpec
from repro.engine.cache import ProjectionCache
from repro.engine.context import QueryContext
from repro.engine.results import result_key
from repro.exceptions import QueryError, WorkerCrashedError, WorkerError
from repro.graph.generators import random_database_graph
from repro.parallel import ParallelQueryEngine, WorkerPool
from repro.service import CommunityService
from repro.service.serialize import dumps
from repro.snapshot import SnapshotStore
from repro.text.inverted_index import CommunityIndex
from repro.text.maintenance import GraphDelta
from repro.wal import WriteAheadLog

#: Longest we poll for an asynchronous pool event (respawn).
POLL_SECONDS = 15.0


def publish_fig4(store_root, radius=FIG4_RMAX):
    """Build fig4 at ``radius``, publish it, return the snapshot."""
    dbg = figure4_graph()
    index = CommunityIndex.build(dbg, radius)
    return SnapshotStore(store_root).publish(
        dbg, index,
        provenance={"dataset": "fig4", "index_radius": radius})


def wait_until(predicate, timeout=POLL_SECONDS, interval=0.05):
    """Poll ``predicate`` until true (returns False on timeout)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool-snapshots")
    publish_fig4(root)
    return root


@pytest.fixture(scope="module")
def parallel_engine(store_root):
    with ParallelQueryEngine(store_root, workers=2) as engine:
        yield engine


@pytest.fixture(scope="module")
def local_engine(store_root):
    return QueryEngine.from_snapshot(
        SnapshotStore(store_root).resolve())


class TestWorkerPoolLifecycle:
    def test_start_spawns_live_distinct_processes(self,
                                                  parallel_engine):
        pool = parallel_engine.pool
        assert pool.alive == 2
        pids = pool.pids()
        assert sorted(pids) == [0, 1]
        assert len(set(pids.values())) == 2

    def test_ping_round_trips_worker_identity(self, parallel_engine):
        pool = parallel_engine.pool
        answer = pool.request("ping", None, timeout=30.0)
        assert answer["pid"] in pool.pids().values()

    def test_stats_report_snapshot_per_worker(self, parallel_engine,
                                              store_root):
        snapshot_id = SnapshotStore(store_root).latest_id()
        stats = parallel_engine.worker_stats()
        assert [s["worker"] for s in stats] == [0, 1]
        for s in stats:
            assert s["alive"] is True
            assert s["snapshot_id"] == snapshot_id

    def test_worker_errors_propagate_as_worker_error(
            self, parallel_engine):
        with pytest.raises(WorkerError):
            parallel_engine.pool.request("no-such-op", None,
                                         timeout=30.0)

    def test_crash_respawns_and_keeps_serving(self, parallel_engine):
        pool = parallel_engine.pool
        respawns_before = pool.respawns
        victim = pool._handles[0].process
        victim_pid = victim.pid
        victim.terminate()
        assert wait_until(
            lambda: pool.alive == 2
            and pool.respawns > respawns_before)
        assert pool.pids()[0] != victim_pid
        # The pool keeps answering queries after the crash.
        spec = QuerySpec.comm_k(list(FIG4_QUERY), 2, FIG4_RMAX)
        assert len(parallel_engine.top_k(spec)) == 2

    def test_dead_worker_fails_its_pending_futures(self,
                                                   parallel_engine):
        pool = parallel_engine.pool
        # Register a pending request against slot 1, then kill the
        # process: the monitor must fail the future (no hung caller)
        # before spawning the replacement.
        future: Future = Future()
        with pool._lock:
            pool._pending["test-doomed"] = (future, 1)
        pool._handles[1].process.terminate()
        with pytest.raises(WorkerCrashedError):
            future.result(timeout=POLL_SECONDS)
        assert wait_until(lambda: pool.alive == 2)

    def test_shutdown_is_clean_and_idempotent(self, store_root):
        pool = WorkerPool(SnapshotStore(store_root).resolve(),
                          workers=1).start()
        assert pool.alive == 1
        pool.shutdown()
        assert pool.alive == 0
        pool.shutdown()             # second call is a no-op
        with pytest.raises(WorkerError):
            WorkerPool(store_root, workers=1).submit("ping", None)

    def test_zero_workers_rejected(self, store_root):
        with pytest.raises(ValueError):
            WorkerPool(store_root, workers=0)


class TestParallelEngineAnswers:
    def test_top_k_matches_local_engine(self, parallel_engine,
                                        local_engine):
        spec = QuerySpec.comm_k(list(FIG4_QUERY), 3, FIG4_RMAX)
        assert parallel_engine.top_k(spec) == local_engine.top_k(spec)

    def test_run_all_matches_local_engine(self, parallel_engine,
                                          local_engine):
        spec = QuerySpec.comm_all(list(FIG4_QUERY), FIG4_RMAX)
        assert parallel_engine.run_all(spec) \
            == local_engine.run_all(spec)

    def test_worker_stats_merge_into_context(self, parallel_engine):
        context = QueryContext()
        # A spec no earlier test asks: the parent's cache answers a
        # repeat itself, and only a worker's answer carries stages.
        spec = QuerySpec.comm_all(list(FIG4_QUERY[:2]), FIG4_RMAX)
        parallel_engine.execute(spec, context)
        assert context.timings            # worker stages merged in
        assert context.counters["communities"] > 0

    def test_execute_batch_preserves_order(self, parallel_engine,
                                           local_engine):
        specs = [QuerySpec.comm_k(list(FIG4_QUERY), k, FIG4_RMAX)
                 for k in (1, 2, 3)]
        batched = parallel_engine.execute_batch(specs)
        assert [len(r) for r in batched] == [1, 2, 3]
        assert batched == [local_engine.top_k(s) for s in specs]

    def test_mode_validation_still_enforced(self, parallel_engine):
        all_spec = QuerySpec.comm_all(list(FIG4_QUERY), FIG4_RMAX)
        with pytest.raises(QueryError):
            parallel_engine.top_k(all_spec)

    def test_swap_fans_out_to_every_worker(self, tmp_path):
        store = tmp_path / "store"
        publish_fig4(store, radius=FIG4_RMAX)
        with ParallelQueryEngine(store, workers=2) as engine:
            old_id = engine.snapshot_id
            publish_fig4(store, radius=4.0)
            new_id = SnapshotStore(store).latest_id()
            assert new_id != old_id
            engine.load_snapshot(SnapshotStore(store).resolve())
            assert engine.snapshot_id == new_id
            assert all(s["snapshot_id"] == new_id
                       for s in engine.worker_stats())


class TestParentHalf:
    def test_is_a_query_engine(self, parallel_engine):
        assert isinstance(parallel_engine, QueryEngine)

    def test_warm_fills_the_parent_and_every_worker(self, store_root):
        spec = QuerySpec.comm_k(list(FIG4_QUERY), 3, FIG4_RMAX)
        with ParallelQueryEngine(store_root, workers=2) as engine:
            assert engine.warm([spec]) == 1
            # A session's first page comes from the warmed entry.
            context = QueryContext()
            stream = engine.top_k_stream(list(FIG4_QUERY), FIG4_RMAX,
                                         context=context)
            assert len(stream.take(3)) == 3
            assert context.counter("result_cache_hits") == 1
            assert context.counter("result_cache_extensions") == 0
            assert "enumerate" not in context.timings
            assert not any(name.startswith("result_cache_")
                           for row in engine.worker_stats()
                           for name in row)

    def test_warm_enumerates_each_spec_once_per_worker(
            self, store_root, monkeypatch):
        specs = [QuerySpec.comm_k(list(FIG4_QUERY), 3, FIG4_RMAX),
                 QuerySpec.comm_k(list(FIG4_QUERY[1:]), 2, FIG4_RMAX),
                 QuerySpec.comm_k(["zzz-unknown"], 1, FIG4_RMAX)]
        with ParallelQueryEngine(store_root, workers=2) as engine:
            # The workers are forked already: this counts streams the
            # parent builds, and no worker's.
            built = []
            ranked = QueryEngine._ranked

            def counting(self, *args, **kwargs):
                built.append(args[0])
                return ranked(self, *args, **kwargs)

            monkeypatch.setattr(QueryEngine, "_ranked", counting)
            lookups = worker_cache_traffic(engine)
            # The unknown keyword is skipped, not fatal: one worker
            # refuses it before any projection. Each other spec runs
            # on one worker once in all.
            assert engine.warm(specs) == 2
            assert built == []
            assert worker_cache_traffic(engine) == lookups + 2
            for spec in specs[:2]:
                context = QueryContext()
                assert len(engine.execute(spec, context)) == spec.k
                assert context.counter("result_cache_hits") == 1
            assert engine.warm(specs[:2]) == 0


def worker_cache_traffic(engine):
    """Projection-cache lookups summed over the workers: one per query
    a worker runs on a projection."""
    return sum(row["cache_lookups"] for row in engine.worker_stats())


def assert_ranked(got, reference, keywords, rmax):
    """``got`` is a correct top-``len(got)`` answer under the
    k-boundary tie rule of DESIGN.md §10: the reference's costs rank
    by rank, its cores below the last cost, and at the last cost any
    subset of the communities tied there."""
    want = reference.top_k(QuerySpec.comm_k(keywords, len(got), rmax))
    got_keys = [(round(c.cost, 9), c.core) for c in got]
    want_keys = [(round(c.cost, 9), c.core) for c in want]
    assert [cost for cost, _ in got_keys] \
        == [cost for cost, _ in want_keys]
    assert len(set(got_keys)) == len(got_keys)
    boundary = want_keys[-1][0]
    assert {key for key in got_keys if key[0] < boundary} \
        == {key for key in want_keys if key[0] < boundary}
    tied = {c.core for c in reference.run_all(
                QuerySpec.comm_all(keywords, rmax))
            if round(c.cost, 9) == boundary}
    assert {core for cost, core in got_keys if cost == boundary} <= tied


class TestParentResultCache:
    def test_repeat_and_smaller_k_need_no_pool_task(self,
                                                    parallel_engine,
                                                    local_engine):
        keywords = list(FIG4_QUERY[1:])
        first = parallel_engine.top_k(
            QuerySpec.comm_k(keywords, 3, FIG4_RMAX))
        traffic = worker_cache_traffic(parallel_engine)
        hits = parallel_engine.results.stats.hits
        for k in (3, 2, 1):
            spec = QuerySpec.comm_k(keywords, k, FIG4_RMAX)
            context = QueryContext()
            answer = parallel_engine.execute(spec, context)
            assert answer == local_engine.top_k(spec)
            assert context.counter("result_cache_hits") == 1
            assert "result_cache_misses" not in context.counters
        assert answer == first[:1]
        assert worker_cache_traffic(parallel_engine) == traffic
        assert parallel_engine.results.stats.hits == hits + 3

    def test_session_pages_past_a_worker_prefix(self, tmp_path):
        keywords, rmax = ["x", "y"], 6.0
        dbg = random_database_graph(24, 0.12, keywords,
                                    keyword_prob=0.3, seed=0,
                                    bidirected=True)
        index = CommunityIndex.build(dbg, rmax)
        SnapshotStore(tmp_path).publish(dbg, index,
                                        provenance={"dataset": "gnp"})
        reference = QueryEngine(dbg, index, result_cache_bytes=0)
        key = result_key(tuple(keywords), rmax, "pd", "sum", "topk")
        with ParallelQueryEngine(tmp_path, workers=2) as engine:
            engine.top_k(QuerySpec.comm_k(keywords, 5, rmax))
            entry = engine.results.lookup(key, engine.generation)
            assert len(entry.prefix) == 5 and entry.stream is None
            context = QueryContext()
            stream = engine.top_k_stream(keywords, rmax,
                                         context=context)
            pages = [stream.take(5) for _ in range(3)]
            assert [len(page) for page in pages] == [5, 5, 5]
            assert_ranked(pages[0] + pages[1] + pages[2], reference,
                          keywords, rmax)
            # One stream, rebuilt once past the worker's prefix and
            # never again: it produced 15, and the session was
            # charged each community once.
            assert entry.stream.emitted == 15
            assert context.counter("communities") == 15
            assert context.counter("result_cache_extensions") == 2
            # A second session reads all 15 from the shared prefix.
            again = QueryContext()
            assert engine.top_k_stream(keywords, rmax,
                                       context=again).take(15) \
                == pages[0] + pages[1] + pages[2]
            assert "enumerate" not in again.timings

    def test_installed_worker_answers_share_their_ids(self, tmp_path):
        """Pickle does not share int objects between tuples; the
        parent rebuilds an installed answer so that each id is one
        object, as in-process. Ids above 256, which CPython does not
        intern, show it."""
        keywords, rmax = ["x", "y"], 4.0
        dbg = random_database_graph(300, 0.01, keywords,
                                    keyword_prob=0.05, seed=1,
                                    bidirected=True)
        SnapshotStore(tmp_path).publish(
            dbg, CommunityIndex.build(dbg, rmax),
            provenance={"dataset": "gnp"})
        spec = QuerySpec.comm_k(keywords, 10, rmax)
        key = result_key(tuple(keywords), rmax, "pd", "sum", "topk")
        with ParallelQueryEngine(tmp_path, workers=2) as engine:
            answer = engine.execute(spec)
            prefix = engine.results.lookup(key, engine.generation).prefix
        assert answer == prefix \
            == QueryEngine(dbg, CommunityIndex.build(dbg, rmax),
                           result_cache_bytes=0).top_k(spec)
        assert any(u > 256 for c in prefix for u in c.core)
        for community in prefix:
            nodes = {u: u for u in community.nodes}
            ids = [*community.core, *community.centers,
                   *community.pnodes,
                   *(u for edge in community.edges for u in edge[:2])]
            assert all(u is nodes[u] for u in ids)

    def test_logged_delta_state_installs_worker_answers(self,
                                                        store_root,
                                                        tmp_path):
        spec = QuerySpec.comm_k(list(FIG4_QUERY), 50, FIG4_RMAX)
        delta = GraphDelta(new_edges=[(0, 3, 0.25)])
        fresh = QueryEngine.from_snapshot(
            SnapshotStore(store_root).resolve(), result_cache_bytes=0)
        fresh.apply_delta(delta)
        with WriteAheadLog(tmp_path / "d.wal", fsync="off") as wal, \
                ParallelQueryEngine(store_root, workers=2,
                                    wal_path=wal) as engine:
            base = engine.snapshot_id
            engine.apply_delta(delta,
                               lsn=wal.append_delta(delta, base=base))
            assert engine.state_id == f"{base}+1"
            first = engine.execute(spec)
            traffic = worker_cache_traffic(engine)
            context = QueryContext()
            again = engine.execute(spec, context)
            assert context.counter("result_cache_hits") == 1
            assert worker_cache_traffic(engine) == traffic
            assert again == first == fresh.top_k(spec)

    def test_unlogged_delta_state_installs_nothing(self, store_root):
        spec = QuerySpec.comm_k(list(FIG4_QUERY), 50, FIG4_RMAX)
        with ParallelQueryEngine(store_root, workers=2) as engine:
            engine.apply_delta(GraphDelta(new_edges=[(0, 3, 0.25)]))
            assert engine.dirty and engine.state_id is None
            first = engine.execute(spec)
            assert len(engine.results) == 0
            traffic = worker_cache_traffic(engine)
            assert engine.execute(spec) == first
            assert worker_cache_traffic(engine) != traffic


def cache_traffic(context):
    """The result-cache counters one query counted, zeros dropped."""
    return {name: context.counter(f"result_cache_{name}")
            for name in ("hits", "extensions", "misses", "errors")
            if context.counter(f"result_cache_{name}")}


def run_contract(engine):
    """One script of the shared query path: each step's answer and
    result-cache traffic, then what ``warm`` computed."""
    keywords = list(FIG4_QUERY)
    steps = [
        ("cold", QuerySpec.comm_k(keywords, 2, FIG4_RMAX)),
        ("repeat", QuerySpec.comm_k(keywords, 2, FIG4_RMAX)),
        ("smaller k", QuerySpec.comm_k(keywords, 1, FIG4_RMAX)),
        ("larger k", QuerySpec.comm_k(keywords, 4, FIG4_RMAX)),
        ("all", QuerySpec.comm_all(keywords, FIG4_RMAX)),
        ("all again", QuerySpec.comm_all(keywords, FIG4_RMAX)),
        ("bu", QuerySpec.comm_k(keywords, 2, FIG4_RMAX,
                                algorithm="bu", budget_seconds=30.0)),
    ]
    seen = {}
    for name, spec in steps:
        context = QueryContext()
        seen[name] = (engine.execute(spec, context),
                      cache_traffic(context))
    unknown = QuerySpec.comm_k(["zzz-unknown"], 1, FIG4_RMAX)
    contexts = [QueryContext(), QueryContext()]
    with pytest.raises(QueryError, match="zzz-unknown"):
        engine.execute_batch(
            [QuerySpec.comm_k(keywords[:2], 1, FIG4_RMAX), unknown],
            contexts)
    seen["batch"] = (None, [cache_traffic(c) for c in contexts])
    fresh = QuerySpec.comm_k(keywords[1:], 2, FIG4_RMAX)
    seen["warmed"] = (engine.warm([fresh, unknown, steps[0][1]]), None)
    context = QueryContext()
    seen["after warm"] = (engine.execute(fresh, context),
                          cache_traffic(context))
    return seen


class TestOneQueryPath:
    def test_both_engines_keep_one_contract(self, store_root):
        """The in-process engine and a pool engine run one lookup →
        compute → install path: equal answers, one result-cache lookup
        per cacheable query, none for ``bu``. The one difference: a
        pool's parent enumerates nothing, so a ``k`` beyond the cached
        prefix is a miss a worker computes, not an extension."""
        local = run_contract(QueryEngine.from_snapshot(
            SnapshotStore(store_root).resolve()))
        with ParallelQueryEngine(store_root, workers=2) as engine:
            pooled = run_contract(engine)
            lookups = engine.results.stats.lookups
        assert {name: answer for name, (answer, _) in pooled.items()} \
            == {name: answer for name, (answer, _) in local.items()}
        assert local["warmed"][0] == 1
        assert len(local["larger k"][0]) == 4
        miss, hit = {"misses": 1}, {"hits": 1}
        expected = {"cold": miss, "repeat": hit, "smaller k": hit,
                    "larger k": {"extensions": 1}, "all": miss,
                    "all again": hit, "bu": {}, "batch": [miss, miss],
                    "after warm": hit}
        assert {name: traffic for name, (_, traffic) in local.items()
                if traffic is not None} == expected
        expected["larger k"] = miss
        assert {name: traffic for name, (_, traffic) in pooled.items()
                if traffic is not None} == expected
        # Six cacheable steps, two batch entries, three warmed specs
        # and the query after them.
        assert lookups == 12

    def test_pool_queues_every_miss_before_awaiting_any(
            self, parallel_engine, monkeypatch):
        events = []
        submit = parallel_engine.pool.submit

        def logged(op, payload, *args, **kwargs):
            future = submit(op, payload, *args, **kwargs)
            result = future.result

            def awaited(*result_args, **result_kwargs):
                events.append("await")
                return result(*result_args, **result_kwargs)

            future.result = awaited
            events.append("submit")
            return future

        monkeypatch.setattr(parallel_engine.pool, "submit", logged)
        # Keywords and radii no other test asks, so every spec misses.
        batch = [QuerySpec.comm_k(["a", "c"], k, 7.5) for k in (1, 2)]
        assert [len(r) for r in parallel_engine.execute_batch(batch)] \
            == [1, 2]
        assert events == ["submit", "submit", "await", "await"]
        events.clear()
        warm = [QuerySpec.comm_k(["a", "c"], k, 7.0) for k in (1, 2)]
        assert parallel_engine.warm(warm) == 2
        assert events == ["submit", "submit", "await", "await"]


def post(service, path, payload):
    """Drive one POST through the service router, no sockets."""
    status, _template, body, _ctype = service.handle(
        "POST", path, json.dumps(payload).encode("utf-8"))
    return status, json.loads(body)


@pytest.fixture(scope="module")
def pooled_service(parallel_engine):
    service = CommunityService(parallel_engine, port=0)
    yield service
    service.shutdown()


class TestBatchEndpoint:
    def test_results_arrive_in_request_order(self, pooled_service):
        queries = [{"keywords": list(FIG4_QUERY),
                    "rmax": FIG4_RMAX, "k": k} for k in (1, 2, 3)]
        status, response = post(pooled_service, "/batch",
                                {"queries": queries})
        assert status == 200
        assert response["queries"] == 3
        assert [r["count"] for r in response["results"]] == [1, 2, 3]
        assert response["elapsed_seconds"] >= 0.0

    def test_batch_entries_match_single_queries(self, pooled_service):
        query = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
                 "k": 2}
        _, single = post(pooled_service, "/query", query)
        _, batch = post(pooled_service, "/batch",
                        {"queries": [query]})
        assert batch["results"][0]["communities"] \
            == single["communities"]

    def test_empty_or_malformed_batch_is_400(self, pooled_service):
        for bad in ({}, {"queries": []}, {"queries": "nope"},
                    {"queries": [42]}):
            status, response = post(pooled_service, "/batch", bad)
            assert status == 400, response

    def test_bad_entry_fails_whole_batch_as_400(self,
                                                pooled_service):
        queries = [{"keywords": list(FIG4_QUERY),
                    "rmax": FIG4_RMAX},
                   {"keywords": ["nosuchkeyword"],
                    "rmax": FIG4_RMAX}]
        status, _ = post(pooled_service, "/batch",
                         {"queries": queries})
        assert status == 400

    def test_unknown_keyword_is_400_through_the_pool(
            self, pooled_service):
        status, response = post(
            pooled_service, "/query",
            {"keywords": ["nosuchkeyword"], "rmax": FIG4_RMAX})
        assert status == 400
        assert "nosuchkeyword" in response["error"]


class TestPoolTransparency:
    """`--workers N` must be invisible in the response bytes."""

    def test_query_envelope_byte_identical_to_local(
            self, parallel_engine, local_engine):
        payload = {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
                   "labels": True}

        def canonical(engine):
            service = CommunityService(engine, port=0)
            try:
                status, response = post(service, "/query", payload)
            finally:
                service.shutdown()
            assert status == 200
            del response["elapsed_seconds"]     # wall-clock noise
            del response["stats"]               # timings differ
            return dumps(response)

        assert canonical(parallel_engine) == canonical(local_engine)

    def test_sessions_still_work_over_the_pool(self, pooled_service):
        status, opened = post(pooled_service, "/sessions",
                              {"keywords": list(FIG4_QUERY),
                               "rmax": FIG4_RMAX})
        assert status == 200
        status, page = post(
            pooled_service, f"/sessions/{opened['session']}/next",
            {"k": 2})
        assert status == 200
        assert page["returned"] == 2


class TestPoolMetrics:
    def test_one_info_row_per_worker(self, pooled_service,
                                     store_root):
        snapshot_id = SnapshotStore(store_root).latest_id()
        body = pooled_service.render_metrics()
        rows = [line for line in body.splitlines()
                if line.startswith("repro_worker_info{")]
        assert len(rows) == 2
        for worker_id in ("0", "1"):
            assert any(f'worker="{worker_id}"' in row
                       for row in rows)
        assert all(f'snapshot_id="{snapshot_id}"' in row
                   for row in rows)
        assert "repro_pool_workers 2" in body
        assert "repro_pool_workers_alive 2" in body
        assert "repro_pool_respawns_total" in body
        assert "repro_worker_dijkstra_memo_hits_total" in body

    def test_admin_reload_reaches_every_worker(self, tmp_path):
        store = tmp_path / "store"
        publish_fig4(store, radius=FIG4_RMAX)
        with ParallelQueryEngine(store, workers=2) as engine:
            service = CommunityService(engine, port=0,
                                       snapshot_source=store)
            try:
                publish_fig4(store, radius=4.0)
                new_id = SnapshotStore(store).latest_id()
                status, reloaded = post(service, "/admin/reload", {})
                assert status == 200
                assert reloaded["snapshot"] == new_id
                rows = [line for line in
                        service.render_metrics().splitlines()
                        if line.startswith("repro_worker_info{")]
                assert len(rows) == 2
                assert all(f'snapshot_id="{new_id}"' in row
                           for row in rows)
            finally:
                service.shutdown()


class TestCacheCounterExactness:
    """Satellite regression: stats increment under the cache lock."""

    def test_threaded_lookups_count_exactly(self):
        cache = ProjectionCache(capacity=8)
        threads, per_thread = 8, 500
        barrier = threading.Barrier(threads)

        def hammer(seed):
            barrier.wait()
            for i in range(per_thread):
                key = (frozenset({f"k{(seed + i) % 4}"}), 1.0)
                if cache.get(key, "g1") is None:
                    cache.put(key, "g1", object())

        workers = [threading.Thread(target=hammer, args=(t,))
                   for t in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        stats = cache.stats
        assert stats.lookups == threads * per_thread
        assert stats.hits + stats.misses == stats.lookups
