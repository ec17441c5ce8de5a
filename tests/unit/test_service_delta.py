"""Handler-level tests for ``POST /admin/delta`` and its
observability surface.

Drives :meth:`CommunityService.handle` directly (no sockets): the
WAL-before-apply ordering, the acknowledged LSN in the response, the
typed 400s from boundary validation, validation against the graph the
delta is applied to, the typed 409 of a shard backend, the
``dirty``/``deltas_applied`` health fields that exist even *without*
a WAL, the ``wal`` healthz block, and the ``repro_wal_*`` /
``repro_engine_dirty`` metrics.
"""

import json
import threading

import pytest

from repro.datasets.paper_example import FIG4_RMAX
from repro.engine import QueryEngine
from repro.service import CommunityService
from repro.shard import partition_snapshot
from repro.snapshot import SnapshotStore
from repro.text.inverted_index import CommunityIndex
from repro.text.maintenance import apply_delta
from repro.wal import WriteAheadLog
from repro.wal.records import parse_delta


@pytest.fixture()
def engine(fig4):
    e = QueryEngine(fig4)
    e.build_index(radius=FIG4_RMAX)
    return e


@pytest.fixture()
def service(engine):
    with CommunityService(engine, port=0) as svc:
        yield svc


@pytest.fixture()
def wal_service(fig4, tmp_path):
    wal = WriteAheadLog(tmp_path / "deltas.wal", fsync="off")
    engine = QueryEngine(fig4)
    engine.build_index(radius=FIG4_RMAX)
    with CommunityService(engine, port=0, wal=wal) as svc:
        yield svc
    wal.close()


def call(service, method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    status, _template, raw, _ctype = service.handle(method, path,
                                                    body)
    return status, json.loads(raw)


GOOD_DELTA = {"nodes": [{"keywords": ["zeta"], "label": "z0"}],
              "edges": [[13, 0, 1.0], [0, 13, 1.0]]}


class TestDeltaWithoutWal:
    def test_delta_applies_and_reports_no_lsn(self, service):
        status, body = call(service, "POST", "/admin/delta",
                            GOOD_DELTA)
        assert status == 200
        assert body["lsn"] is None  # nothing durable to acknowledge
        assert body["nodes_added"] == 1
        assert body["edges_added"] == 2
        assert body["dirty"] is True
        assert body["deltas_applied"] == 1
        assert "pending_deltas" not in body

    def test_healthz_surfaces_dirty_state(self, service):
        _status, before = call(service, "GET", "/healthz")
        assert before["dirty"] is False
        assert before["deltas_applied"] == 0
        assert "wal" not in before
        call(service, "POST", "/admin/delta", GOOD_DELTA)
        _status, after = call(service, "GET", "/healthz")
        assert after["dirty"] is True
        assert after["deltas_applied"] == 1

    def test_metrics_surface_dirty_gauge(self, service):
        status, _template, text, _ctype = service.handle(
            "GET", "/metrics", b"")
        assert status == 200
        assert "repro_engine_dirty 0" in text
        assert "repro_engine_deltas_applied_total 0" in text
        assert "repro_wal_lsn" not in text
        call(service, "POST", "/admin/delta", GOOD_DELTA)
        _s, _t, text, _c = service.handle("GET", "/metrics", b"")
        assert "repro_engine_dirty 1" in text
        assert "repro_engine_deltas_applied_total 1" in text


class TestDeltaValidation:
    @pytest.mark.parametrize("payload, fragment", [
        ({}, "at least one"),
        ({"nodes": [{"keywords": ["q"]}, {"keywords": ["q"]}],
          "edges": [[99, 0, 1.0]]}, "unknown node"),
        ({"edges": [[0, 1, float("nan")]]}, "finite"),
        ({"edges": [[0, 1, -1.0]]}, ">= 0"),
        ({"nodes": [{"id": 13}, {"id": 13}]}, "duplicate"),
        ({"nodes": [{"keywords": ["q"], "id": 5}]}, "densely"),
    ])
    def test_invalid_payloads_are_400(self, service, payload,
                                      fragment):
        body = json.dumps(payload).encode()
        status, _t, raw, _c = service.handle("POST", "/admin/delta",
                                             body)
        assert status == 400
        assert fragment in json.loads(raw)["error"]
        # a rejected delta must not touch the engine
        assert service.engine.dirty is False

    def test_banks_reweight_must_be_boolean(self, service):
        payload = dict(GOOD_DELTA, banks_reweight="yes")
        status, body = call(service, "POST", "/admin/delta", payload)
        assert status == 400
        assert "boolean" in body["error"]

    def test_malformed_json_is_400(self, service):
        status, _t, raw, _c = service.handle("POST", "/admin/delta",
                                             b"{nope")
        assert status == 400

    def test_rejected_delta_never_reaches_wal(self, wal_service):
        status, _body = call(wal_service, "POST", "/admin/delta",
                             {"edges": [[0, 999, 1.0]]})
        assert status == 400
        assert wal_service.wal.lsn == 0


class RivalFirstLock:
    """An ingest lock that a rival holder always wins first.

    The first acquire runs ``rival`` — the work another holder of the
    ingest lock (a reload, a compaction swap) does while this request
    waits for it — and only then takes the lock. Deterministic, no
    sleeps: anything the request read before acquiring is exactly
    what the rival made stale.
    """

    def __init__(self, rival):
        self._lock = threading.Lock()
        self._rival = rival

    def __enter__(self):
        rival, self._rival = self._rival, None
        if rival is not None:
            rival()
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


class TestDeltaUnderIngestLock:
    def test_validated_against_the_graph_it_is_applied_to(
            self, fig4, tmp_path):
        """A reload that grows the graph while a delta waits for the
        ingest lock must not turn the (now valid) delta into a 400."""
        index = CommunityIndex.build(fig4, FIG4_RMAX)
        store = SnapshotStore(tmp_path / "store")
        small = store.publish(fig4, index)
        grown = store.publish(*apply_delta(
            index, parse_delta(GOOD_DELTA, base_nodes=fig4.n)))
        service = CommunityService(QueryEngine.from_snapshot(small.path),
                                   port=0)
        with service:
            service.ingest_lock = RivalFirstLock(lambda: call(
                service, "POST", "/admin/reload",
                {"path": str(grown.path)}))
            # Valid only against the grown graph: node 14 is the
            # next dense id after the reload, 13 before it.
            status, body = call(service, "POST", "/admin/delta", {
                "nodes": [{"id": 14, "keywords": ["eta"]}],
                "edges": [[14, 13, 1.0], [13, 14, 1.0]]})
            assert status == 200, body
            assert body["nodes_added"] == 1
            assert service.engine.dbg.n == 15


@pytest.fixture()
def fig4_parts(fig4, tmp_path):
    """(whole snapshot dir, shard-0 snapshot dir) of a 2-way fig4
    partition."""
    store = SnapshotStore(tmp_path / "store")
    whole = store.publish(fig4, CommunityIndex.build(fig4, FIG4_RMAX))
    manifest, _ = partition_snapshot(tmp_path / "store",
                                     tmp_path / "parts", 2)
    entry = manifest.shards[0]
    return whole.path, tmp_path / "parts" / entry.store \
        / entry.snapshot_id


class TestShardBackendRefusesDeltas:
    def test_shard_backend_answers_409_without_side_effects(
            self, fig4_parts, tmp_path):
        _, shard = fig4_parts
        wal = WriteAheadLog(tmp_path / "shard.wal", fsync="off")
        service = CommunityService(QueryEngine.from_snapshot(shard),
                                   port=0, wal=wal)
        with service:
            generation = service.engine.generation
            status, body = call(service, "POST", "/admin/delta",
                                GOOD_DELTA)
            assert status == 409
            assert "shard 0 of 2" in body["error"]
            # Refused before validation: a malformed delta is a 409
            # too, never a 400.
            status, _body = call(service, "POST", "/admin/delta", {})
            assert status == 409
            assert wal.lsn == 0
            assert service.engine.generation == generation
            assert service.engine.dirty is False
        wal.close()

    def test_refusal_follows_the_served_snapshot_across_reloads(
            self, fig4_parts):
        whole, shard = fig4_parts
        service = CommunityService(QueryEngine.from_snapshot(whole),
                                   port=0)
        with service:
            status, _body = call(service, "POST", "/admin/delta",
                                 GOOD_DELTA)
            assert status == 200
            call(service, "POST", "/admin/reload",
                 {"path": str(shard)})
            status, _body = call(service, "POST", "/admin/delta",
                                 GOOD_DELTA)
            assert status == 409
            call(service, "POST", "/admin/reload",
                 {"path": str(whole)})
            status, _body = call(service, "POST", "/admin/delta",
                                 GOOD_DELTA)
            assert status == 200


class TestDeltaWithWal:
    def test_ack_carries_durable_lsn(self, wal_service):
        status, body = call(wal_service, "POST", "/admin/delta",
                            GOOD_DELTA)
        assert status == 200
        assert body["lsn"] == 1
        assert body["pending_deltas"] == 1
        status, body = call(wal_service, "POST", "/admin/delta",
                            {"edges": [[0, 3, 0.5]]})
        assert body["lsn"] == 2
        # WAL-before-apply: the log holds exactly the acknowledged
        # deltas, stamped with the serving engine's base snapshot
        records = wal_service.wal.records()
        assert [r["lsn"] for r in records] == [1, 2]
        assert all(r["type"] == "delta" for r in records)

    def test_healthz_wal_block(self, wal_service):
        call(wal_service, "POST", "/admin/delta", GOOD_DELTA)
        _status, health = call(wal_service, "GET", "/healthz")
        wal = health["wal"]
        assert wal["enabled"] is True
        assert wal["lsn"] == 1
        assert wal["pending_deltas"] == 1
        assert wal["dirty"] is True
        assert wal["fsync"] == "off"
        assert wal["appends"] == 1

    def test_healthz_compaction_block(self, wal_service, tmp_path):
        from repro.snapshot import SnapshotStore
        from repro.wal import Compactor
        wal_service.compactor = Compactor(
            wal_service.wal, SnapshotStore(tmp_path / "store"))
        _status, health = call(wal_service, "GET", "/healthz")
        compaction = health["wal"]["compaction"]
        assert compaction["degraded"] is False
        assert health["status"] == "ok"
        wal_service.compactor.degraded = True
        _status, health = call(wal_service, "GET", "/healthz")
        assert health["wal"]["compaction"]["degraded"] is True
        assert health["status"] == "degraded"

    def test_metrics_wal_families(self, wal_service):
        call(wal_service, "POST", "/admin/delta", GOOD_DELTA)
        _s, _t, text, _c = wal_service.handle("GET", "/metrics", b"")
        assert "repro_wal_appends_total 1" in text
        assert "repro_wal_lsn 1" in text
        assert "repro_wal_pending_deltas 1" in text
        assert "repro_wal_bytes" in text
        assert "repro_wal_truncations_total 0" in text

    def test_metrics_compaction_families(self, wal_service,
                                         tmp_path):
        from repro.snapshot import SnapshotStore
        from repro.wal import Compactor
        wal_service.compactor = Compactor(
            wal_service.wal, SnapshotStore(tmp_path / "store"))
        _s, _t, text, _c = wal_service.handle("GET", "/metrics", b"")
        assert "repro_wal_compactions_total 0" in text
        assert "repro_wal_compaction_failures_total 0" in text
        assert "repro_wal_compaction_degraded 0" in text
