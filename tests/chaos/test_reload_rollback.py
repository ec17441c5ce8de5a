"""Reload rollback: a failed hot swap keeps serving the old graph.

Two failure planes:

* the *parent* rejects a snapshot that fails checksum verification at
  load time (real on-disk damage — no failpoint needed);
* a *worker* fails its reload broadcast (injected via
  ``worker.0.reload=once:raise``): the engine must roll every worker
  and the parent back to the previous snapshot, raise, and keep
  answering from the old graph — then succeed on a later retry once
  the fault has passed. With a WAL attached, "the old graph" includes
  the logged deltas, in the parent as in every worker.
"""

import json
import os
import signal

import pytest

from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.engine import QuerySpec
from repro.exceptions import SnapshotError
from repro.parallel import ParallelQueryEngine
from repro.service import CommunityService
from repro.snapshot import SnapshotStore
from repro.text.maintenance import GraphDelta
from repro.wal import WriteAheadLog

from chaos_helpers import publish_fig4, wait_until


def post(service, path, payload):
    """Drive one POST through the service router, no sockets."""
    status, _template, body, _ctype = service.handle(
        "POST", path, json.dumps(payload).encode("utf-8"))
    return status, json.loads(body)


class TestWorkerReloadRollback:
    def test_failed_worker_reload_rolls_back_then_recovers(
            self, fig4_store, monkeypatch):
        old_id = SnapshotStore(fig4_store).latest_id()
        monkeypatch.setenv("REPRO_FAILPOINTS",
                           "worker.0.reload=once:raise")
        with ParallelQueryEngine(fig4_store, workers=2) as engine:
            with CommunityService(engine, port=0,
                                  snapshot_source=fig4_store) \
                    as service:
                new_id = publish_fig4(fig4_store, radius=4.0).id
                assert new_id != old_id

                # First reload: worker 0's failpoint fires, the swap
                # is rolled back and surfaced as a server error.
                status, body = post(service, "/admin/reload", {})
                assert status == 500
                assert "rolled back" in body["error"]
                assert old_id in body["error"]

                # Everyone — parent and both workers — still serves
                # the old snapshot, and queries still answer.
                assert engine.snapshot_id == old_id
                assert all(s["snapshot_id"] == old_id
                           for s in engine.worker_stats())
                spec = QuerySpec.comm_k(list(FIG4_QUERY), 1,
                                        FIG4_RMAX)
                assert len(engine.top_k(spec)) == 1

                # The fault was once-only: the retry goes through and
                # moves every worker to the new artifact.
                status, body = post(service, "/admin/reload", {})
                assert status == 200
                assert body["snapshot"] == new_id
                assert all(s["snapshot_id"] == new_id
                           for s in engine.worker_stats())

    def test_respawn_after_swap_loads_the_adopted_snapshot(
            self, fig4_store):
        """A worker respawned *after* a successful hot swap must load
        the newly adopted artifact, not the one the pool was
        constructed with — one respawn must never put two snapshot
        generations in service at once."""
        old_id = SnapshotStore(fig4_store).latest_id()
        with ParallelQueryEngine(fig4_store, workers=2) as engine:
            new = publish_fig4(fig4_store, radius=4.0)
            assert new.id != old_id
            engine.load_snapshot(SnapshotStore(fig4_store).resolve())
            assert engine.pool.snapshot_path == str(new.path)

            victim = engine.pool.pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert wait_until(
                lambda: engine.pool.alive == 2
                and engine.pool.pids().get(0) not in (None, victim))
            assert wait_until(lambda: all(
                row.get("snapshot_id") == new.id
                for row in engine.worker_stats()))

    def test_rollback_re_points_respawns_at_the_old_snapshot(
            self, fig4_store, monkeypatch):
        """After a failed swap rolls back, a respawned worker must
        load the *previous* (still-serving) artifact."""
        monkeypatch.setenv("REPRO_FAILPOINTS",
                           "worker.0.reload=once:raise")
        with ParallelQueryEngine(fig4_store, workers=2) as engine:
            active = engine._active
            publish_fig4(fig4_store, radius=4.0)
            with pytest.raises(SnapshotError):
                engine.load_snapshot(
                    SnapshotStore(fig4_store).resolve())
            assert engine.pool.snapshot_path == str(active.path)

    def test_engine_swap_raises_and_rolls_back(self, fig4_store,
                                               monkeypatch):
        old_id = SnapshotStore(fig4_store).latest_id()
        monkeypatch.setenv("REPRO_FAILPOINTS",
                           "worker.0.reload=once:raise")
        with ParallelQueryEngine(fig4_store, workers=2) as engine:
            publish_fig4(fig4_store, radius=4.0)
            with pytest.raises(SnapshotError) as excinfo:
                engine.load_snapshot(
                    SnapshotStore(fig4_store).resolve())
            assert "rolled back" in str(excinfo.value)
            assert engine.snapshot_id == old_id


class TestRollbackWithWal:
    def test_rolled_back_parent_keeps_the_workers_delta_state(
            self, fig4_store, tmp_path, monkeypatch):
        """Each worker's rollback reload replays the WAL onto the
        previous snapshot; the parent must end in that same state,
        not on the previous snapshot as published."""
        old_id = SnapshotStore(fig4_store).latest_id()
        monkeypatch.setenv("REPRO_FAILPOINTS",
                           "worker.0.reload=once:raise")
        spec = QuerySpec.comm_k(list(FIG4_QUERY), 50, FIG4_RMAX)

        def parent_state(engine):
            # A session page is computed in the parent, never a worker.
            page = engine.top_k_stream(list(FIG4_QUERY),
                                       FIG4_RMAX).take(50)
            return (page, engine.dirty, engine.deltas_applied,
                    engine.applied_lsn)

        with WriteAheadLog(tmp_path / "d.wal", fsync="off") as wal, \
                ParallelQueryEngine(fig4_store, workers=2,
                                    wal_path=wal) as engine:
            pristine = parent_state(engine)
            delta = GraphDelta(new_edges=[(0, 3, 0.25)])
            engine.apply_delta(
                delta, lsn=wal.append_delta(delta, base=old_id))
            before = parent_state(engine)
            assert before[0] != pristine[0]       # the delta shows
            assert before[1:] == (True, 1, 1)

            publish_fig4(fig4_store, radius=4.0)
            with pytest.raises(SnapshotError, match="rolled back"):
                engine.load_snapshot(
                    SnapshotStore(fig4_store).resolve())

            assert parent_state(engine) == before
            for worker_id in range(engine.workers):
                answer, _, _ = engine.pool.submit(
                    "query", spec, worker_id=worker_id).result()
                assert answer == before[0], worker_id


class TestParentLoadRejection:
    def test_damaged_snapshot_is_rejected_before_any_swap(
            self, fig4_store):
        """Real on-disk damage: flip a byte in the newest snapshot's
        postings section. ``/admin/reload`` must answer 4xx and keep
        the engine on the old artifact."""
        old_id = SnapshotStore(fig4_store).latest_id()
        with ParallelQueryEngine(fig4_store, workers=2) as engine:
            damaged = publish_fig4(fig4_store, radius=4.0)
            target = damaged.path / "postings.bin"
            data = bytearray(target.read_bytes())
            data[3] ^= 0x01
            target.write_bytes(bytes(data))

            with CommunityService(engine, port=0,
                                  snapshot_source=fig4_store) \
                    as service:
                status, body = post(service, "/admin/reload", {})
                assert status == 400
                assert "checksum" in body["error"]
                assert engine.snapshot_id == old_id
                assert all(s["snapshot_id"] == old_id
                           for s in engine.worker_stats())
                spec = QuerySpec.comm_k(list(FIG4_QUERY), 1,
                                        FIG4_RMAX)
                assert len(engine.top_k(spec)) == 1
