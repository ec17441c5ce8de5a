"""Background compaction: fold WAL deltas into a published snapshot.

The WAL grows with every acknowledged delta and replay cost grows with
it; :class:`Compactor` bounds both. One compaction cycle:

1. **Fold** (no lock held): read the pending deltas, load their base
   snapshot from the store by id, and apply the deltas in LSN order —
   the same deterministic :func:`repro.text.maintenance.apply_delta`
   the serving path uses, so the folded artifact is byte-identical to
   the served state at that LSN.
2. **Publish**: write the folded graph + index into the store
   (staged + atomic rename, per :class:`~repro.snapshot.store.
   SnapshotStore`), then re-verify the published artifact checksum by
   checksum before anything references it. The ``compact.publish``
   failpoint sits immediately before the publish — the crash window
   chaos tests target.
3. **Commit** (under the service's ingest lock, so no delta lands
   mid-swing): append a ``checkpoint`` record naming the new snapshot
   and its fold point, truncate the folded prefix, and — when the
   compactor is attached to a live engine — hot-swap the engine onto
   the new snapshot through the ordinary reload path and replay any
   deltas that arrived between fold and commit.

Failure anywhere is containment, not outage: the WAL still holds every
acknowledged delta, the old snapshot keeps serving, and the compactor
goes **sticky degraded** — the background loop stops retrying (the
same philosophy as the worker-pool breaker: a deterministic failure
retried forever is log spam, not healing) while queries keep flowing
and a manual ``python -m repro compact`` or restart clears the state.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro import faults
from repro.exceptions import WalError
from repro.snapshot.snapshot import verify_snapshot
from repro.snapshot.store import SnapshotStore
from repro.text.maintenance import apply_delta
from repro.wal.log import (
    WriteAheadLog,
    base_snapshot,
    pending_deltas,
    replay,
)
from repro.wal.records import delta_from_wire

if TYPE_CHECKING:
    from repro.engine.engine import QueryEngine

#: Default seconds between background compaction attempts.
DEFAULT_COMPACT_INTERVAL = 300.0


class Compactor:
    """Folds a WAL's pending deltas into a fresh store snapshot.

    ``engine`` (optional) is the live
    :class:`~repro.engine.engine.QueryEngine` to hot-swap after a
    successful publish (a pool engine's swap and replay reach its
    workers too); offline compaction (the CLI) passes ``None``.
    ``lock`` is the service's
    ingest lock, held across checkpoint + truncate + swap so no delta
    is acknowledged against a moving base.
    """

    def __init__(self, wal: WriteAheadLog, store: SnapshotStore,
                 engine: Optional["QueryEngine"] = None,
                 lock: Optional[threading.Lock] = None,
                 interval: float = DEFAULT_COMPACT_INTERVAL,
                 min_deltas: int = 1) -> None:
        if min_deltas < 1:
            raise ValueError(
                f"min_deltas must be >= 1, got {min_deltas}")
        self.wal = wal
        self.store = store
        self.engine = engine
        self.interval = interval
        self.min_deltas = min_deltas
        self._ingest_lock = lock if lock is not None \
            else threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Sticky failure flag: set on the first failed cycle, never
        #: cleared by the loop itself.
        self.degraded = False
        self.last_error: Optional[str] = None
        self.compactions = 0
        self.failures = 0
        self.folded = 0
        self.last_snapshot: Optional[str] = None
        self.last_compacted_at: Optional[float] = None

    # ------------------------------------------------------------------
    # one cycle
    # ------------------------------------------------------------------
    def compact_once(self) -> Optional[str]:
        """Fold, publish, checkpoint, truncate, hot-swap.

        Returns the new snapshot id, or ``None`` when fewer than
        ``min_deltas`` deltas are pending. Raises on failure — the
        caller (the background loop, or the CLI) decides whether that
        is sticky.
        """
        records = self.wal.records()
        pending = pending_deltas(records)
        if len(pending) < self.min_deltas:
            return None
        base_id = base_snapshot(records)
        if base_id is None:
            raise WalError(
                "WAL has pending deltas but no base snapshot id — "
                "deltas were logged against an engine that never "
                "loaded a snapshot; compaction has nothing to fold "
                "onto")
        base = self.store.load(base_id, verify=True)
        if base.index is None:
            raise WalError(
                f"base snapshot {base_id} has no community index; "
                f"compaction cannot fold deltas without one")

        # Fold outside any lock: ingestion keeps flowing while we
        # rebuild. Deltas that land after `through` stay in the WAL
        # and are replayed onto the swapped engine at commit.
        through = pending[-1]["lsn"]
        dbg, index = base.dbg, base.index
        for record in pending:
            dbg, index = apply_delta(
                index, delta_from_wire(record["delta"]),
                bool(record.get("banks_reweight")))

        self.wal.append_compact(base_id, through)
        faults.hit("compact.publish")
        snapshot = self.store.publish(
            dbg, index=index,
            provenance={"compacted_from": base_id,
                        "folded_lsn": through,
                        "deltas": len(pending)})
        verify_snapshot(snapshot.path)

        with self._ingest_lock:
            self.wal.append_checkpoint(snapshot.id, through)
            self.wal.truncate(through)
            if self.engine is not None:
                self.engine.load_snapshot(str(snapshot.path))
                # Deltas acknowledged between fold and this lock are
                # still in the WAL suffix; converge before unlocking.
                replay(self.engine, self.wal)
        self.compactions += 1
        self.folded += len(pending)
        self.last_snapshot = snapshot.id
        self.last_compacted_at = time.time()
        return snapshot.id

    # ------------------------------------------------------------------
    # background loop
    # ------------------------------------------------------------------
    def start(self) -> "Compactor":
        """Start the background thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-compactor", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the loop to exit and join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if self.degraded:
                continue
            try:
                self.compact_once()
            except Exception as error:  # noqa: BLE001 — sticky flag
                self.failures += 1
                self.degraded = True
                self.last_error = (
                    f"{type(error).__name__}: {error}")

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """State for the ``/healthz`` ``wal.compaction`` block."""
        return {
            "running": (self._thread is not None
                        and self._thread.is_alive()),
            "interval": self.interval,
            "min_deltas": self.min_deltas,
            "degraded": self.degraded,
            "compactions": self.compactions,
            "failures": self.failures,
            "folded_deltas": self.folded,
            "last_snapshot": self.last_snapshot,
            "last_compacted_at": self.last_compacted_at,
            "last_error": self.last_error,
        }

    def __repr__(self) -> str:
        return (f"Compactor(store={str(self.store.root)!r}, "
                f"degraded={self.degraded}, "
                f"compactions={self.compactions})")
