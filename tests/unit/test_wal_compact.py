"""Unit tests for WAL compaction (:class:`repro.wal.Compactor`).

Folding must be byte-equivalent to the serving path (same
``apply_delta`` in LSN order), a successful cycle must
checkpoint-then-truncate so replay stays anchored, a failed publish
must leave the WAL intact with the old snapshot serving (sticky
degraded, never an outage), and ``SnapshotStore.prune`` must never
delete a snapshot the WAL still depends on.
"""

import pytest

from repro import faults
from repro.datasets.paper_example import FIG4_RMAX, figure4_graph
from repro.engine import QueryEngine
from repro.engine.spec import QuerySpec
from repro.exceptions import FaultInjectedError, WalError
from repro.snapshot import SnapshotStore
from repro.text.inverted_index import CommunityIndex
from repro.text.maintenance import GraphDelta
from repro.wal import Compactor, WriteAheadLog

SPEC = QuerySpec(keywords=("a", "b", "c"), rmax=FIG4_RMAX)
DELTAS = [GraphDelta(new_edges=[(0, 3, 0.25)]),
          GraphDelta(new_nodes=[({"a"}, "extra", None)],
                     new_edges=[(13, 4, 0.5)])]


@pytest.fixture(autouse=True)
def clean_failpoints():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture()
def store(tmp_path):
    root = tmp_path / "store"
    dbg = figure4_graph()
    index = CommunityIndex.build(dbg, FIG4_RMAX)
    SnapshotStore(root).publish(dbg, index,
                                provenance={"dataset": "fig4"})
    return SnapshotStore(root)


@pytest.fixture()
def wal(tmp_path, store):
    base = store.load("latest", verify=False)
    log = WriteAheadLog(tmp_path / "deltas.wal", fsync="off")
    for delta in DELTAS:
        log.append_delta(delta, base=base.id)
    yield log
    log.close()


def answers(engine):
    return [c.nodes for c in engine.run_all(SPEC)]


class TestCompactOnce:
    def test_folds_and_matches_served_state(self, store, wal):
        base = store.load("latest", verify=False)
        live = QueryEngine.from_snapshot(base.path)
        for lsn, delta in enumerate(DELTAS, start=1):
            live.apply_delta(delta, lsn=lsn)

        new_id = Compactor(wal, store).compact_once()
        assert new_id is not None and new_id != base.id
        folded = QueryEngine.from_snapshot(
            store.load(new_id, verify=True).path)
        assert (folded.dbg.n, folded.dbg.m) \
            == (live.dbg.n, live.dbg.m)
        assert answers(folded) == answers(live)

    def test_checkpoint_then_truncate(self, store, wal):
        new_id = Compactor(wal, store).compact_once()
        records = wal.records()
        # folded deltas are gone; the checkpoint anchor survives
        assert all(r["type"] != "delta" for r in records)
        checkpoints = [r for r in records
                       if r["type"] == "checkpoint"]
        assert checkpoints[-1]["snapshot"] == new_id
        assert checkpoints[-1]["folded"] == 2
        assert wal.pending_count == 0
        # a fresh engine on the new snapshot replays nothing
        engine = QueryEngine.from_snapshot(
            store.load(new_id, verify=False).path, wal_path=wal)
        assert engine.deltas_applied == 0

    def test_provenance_records_fold(self, store, wal):
        base = store.load("latest", verify=False)
        new_id = Compactor(wal, store).compact_once()
        manifest = {m["id"]: m for m in store.list()}[new_id]
        provenance = manifest["provenance"]
        assert provenance["compacted_from"] == base.id
        assert provenance["folded_lsn"] == 2
        assert provenance["deltas"] == 2

    def test_min_deltas_skips_small_backlogs(self, store, wal):
        compactor = Compactor(wal, store, min_deltas=5)
        assert compactor.compact_once() is None
        assert wal.pending_count == 2  # untouched

    def test_min_deltas_must_be_positive(self, store, wal):
        with pytest.raises(ValueError, match="min_deltas"):
            Compactor(wal, store, min_deltas=0)

    def test_no_base_snapshot_is_an_error(self, tmp_path, store):
        log = WriteAheadLog(tmp_path / "anon.wal", fsync="off")
        log.append_delta(DELTAS[0], base=None)
        with pytest.raises(WalError, match="no base snapshot"):
            Compactor(log, store).compact_once()
        log.close()

    def test_hot_swaps_attached_engine(self, store, wal):
        base = store.load("latest", verify=False)
        engine = QueryEngine.from_snapshot(base.path, wal_path=wal)
        assert engine.deltas_applied == 2
        expected = answers(engine)
        new_id = Compactor(wal, store, engine=engine).compact_once()
        assert engine.snapshot_id == new_id
        assert engine.dirty is False  # everything is folded in
        assert answers(engine) == expected


class TestCompactionFailure:
    def test_failed_publish_leaves_wal_and_snapshot_intact(
            self, store, wal):
        base = store.load("latest", verify=False)
        engine = QueryEngine.from_snapshot(base.path, wal_path=wal)
        before = answers(engine)
        faults.activate("compact.publish", "once:raise")
        compactor = Compactor(wal, store, engine=engine)
        with pytest.raises(FaultInjectedError):
            compactor.compact_once()
        # containment: every acknowledged delta still in the WAL,
        # the old snapshot still serving, zero failed queries
        assert wal.pending_count == 2
        assert engine.base_snapshot_id == base.id
        assert answers(engine) == before
        assert {m["id"] for m in store.list()} == {base.id}

    def test_background_loop_goes_sticky_degraded(self, store, wal):
        faults.activate("compact.publish", "always:raise")
        compactor = Compactor(wal, store, interval=0.01)
        compactor.start()
        try:
            deadline_ok = _wait(lambda: compactor.degraded)
            assert deadline_ok
            failures = compactor.failures
            assert failures == 1  # sticky: no retry spam
            _wait(lambda: False, timeout=0.1)
            assert compactor.failures == failures
            assert "FaultInjectedError" in compactor.last_error
            info = compactor.as_dict()
            assert info["degraded"] is True
            assert info["running"] is True
        finally:
            compactor.stop()
        assert wal.pending_count == 2

    def test_manual_compact_clears_backlog_after_degrade(
            self, store, wal):
        faults.activate("compact.publish", "once:raise")
        compactor = Compactor(wal, store)
        with pytest.raises(FaultInjectedError):
            compactor.compact_once()
        # the CLI path: a fresh compactor (failpoint now spent)
        assert Compactor(wal, store).compact_once() is not None
        assert wal.pending_count == 0


class TestPruneProtection:
    def test_prune_spares_wal_base_snapshot(self, tmp_path, store,
                                            wal):
        base = store.load("latest", verify=False)
        # publish enough newer snapshots to push base past keep=1
        dbg = figure4_graph()
        index = CommunityIndex.build(dbg, FIG4_RMAX + 1.0)
        newer = [store.publish(dbg, index, provenance={"gen": i})
                 for i in range(2)]
        removed = store.prune(keep=1, wal=str(wal.path))
        assert base.id not in removed
        survivors = {m["id"] for m in store.list()}
        assert base.id in survivors
        assert newer[-1].id in survivors  # latest always kept

    def test_prune_without_wal_still_drops_old(self, store, wal):
        base = store.load("latest", verify=False)
        dbg = figure4_graph()
        index = CommunityIndex.build(dbg, FIG4_RMAX + 1.0)
        for i in range(2):
            store.publish(dbg, index, provenance={"gen": i})
        removed = store.prune(keep=1)
        assert base.id in removed


def _wait(predicate, timeout=10.0, interval=0.01):
    import time
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()
