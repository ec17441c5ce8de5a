"""The durable delta write-ahead log: append, recover, replay.

:class:`WriteAheadLog` is the write side. Every acknowledged
``GraphDelta`` is framed (see :mod:`repro.wal.records`), stamped with
the next LSN and the base snapshot id, appended, and flushed — with
``fsync`` per the configured policy — *before* the engine applies it.
A restart therefore reconstructs exactly the acknowledged state:

``always``
    one ``fsync`` per append. An acknowledged delta survives kill -9
    *and* power loss; the slowest policy.
``batch``
    flush per append, ``fsync`` every ``batch_records`` appends (and
    on checkpoint/truncate/close). kill -9 still loses nothing that
    was flushed — OS page cache survives process death — but power
    loss may drop up to one batch of acknowledged deltas.
``off``
    flush only. Same kill -9 story, no power-loss story; for bulk
    backfills and benchmarks.

Recovery on open distinguishes the two failure shapes precisely: a
*torn tail* (short or CRC-failing **final** frame — the one crash an
append can suffer) is truncated with a :class:`WalTruncationWarning`;
damage anywhere before an intact record raises
:class:`~repro.exceptions.WalCorruptionError`, because repairing it
would silently drop acknowledged writes.

The read side is module functions over a record list or a path —
:func:`read_wal`, :func:`pending_deltas`, :func:`replay` — used by
pool workers (which replay the suffix past their snapshot without
opening the file for writing), by startup recovery
(``QueryEngine.from_snapshot(wal_path=...)``), and by
``SnapshotStore.prune`` (which must keep :func:`protected_snapshots`).

Replay correctness leans on one invariant: the log is a **linear
history** from its first base snapshot. A ``checkpoint`` record says
"snapshot S materializes every delta with ``lsn <= folded``", so an
engine serving S replays exactly the deltas past ``folded``, and an
engine serving an *older* snapshot in the same history replays from
its own fold point — both land on the identical current state. A
snapshot the log has never heard of is a :class:`~repro.exceptions.
WalError`: replaying someone else's history onto it would corrupt it.
"""

from __future__ import annotations

import os
import threading
import warnings
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Optional,
                    Set, Union)

from repro import faults
from repro.exceptions import WalError
from repro.text.maintenance import GraphDelta
from repro.wal.records import (
    delta_from_wire,
    delta_to_wire,
    encode_record,
    scan_records,
)

if TYPE_CHECKING:
    from repro.engine.engine import QueryEngine

#: Accepted values for the append-path durability policy.
FSYNC_POLICIES = ("always", "batch", "off")

#: ``batch`` policy: fsync once per this many appends.
DEFAULT_BATCH_RECORDS = 16

PathLike = Union[str, Path]
WalSource = Union[PathLike, "WriteAheadLog", List[Dict[str, Any]]]


class WalTruncationWarning(UserWarning):
    """A torn tail was truncated while opening a WAL for writing."""


class WriteAheadLog:
    """Append-only framed record log with crash recovery on open."""

    def __init__(self, path: PathLike, fsync: str = "always",
                 batch_records: int = DEFAULT_BATCH_RECORDS) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}")
        if batch_records < 1:
            raise WalError(
                f"batch_records must be >= 1, got {batch_records}")
        self.path = Path(path)
        self.fsync_policy = fsync
        self.batch_records = batch_records
        #: Lifetime counters, exported as ``repro_wal_*`` metrics.
        self.appends = 0
        self.fsyncs = 0
        self.truncations = 0
        self.replayed = 0
        self._lock = threading.RLock()
        self._unsynced = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = self.path.read_bytes() if self.path.exists() else b""
        scan = scan_records(data)       # raises on mid-stream damage
        if scan.torn is not None:
            warnings.warn(
                f"WAL {self.path}: torn tail ({scan.torn}); "
                f"truncating {len(data) - scan.good_bytes} bytes to "
                f"the last intact record",
                WalTruncationWarning, stacklevel=2)
            with open(self.path, "r+b") as handle:
                handle.truncate(scan.good_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            self.truncations += 1
        self._records: List[Dict[str, Any]] = scan.records
        self._lsn = (scan.records[-1]["lsn"] if scan.records else 0)
        self._bytes = scan.good_bytes
        self._file = open(self.path, "ab")

    # ------------------------------------------------------------------
    # append path
    # ------------------------------------------------------------------
    def _append(self, payload: Dict[str, Any]) -> int:
        with self._lock:
            if self._file.closed:
                raise WalError(f"WAL {self.path} is closed")
            faults.hit("wal.append")
            lsn = self._lsn + 1
            record = dict(payload, lsn=lsn)
            frame = encode_record(record)
            self._file.write(frame)
            self._file.flush()
            self._lsn = lsn
            self._bytes += len(frame)
            self._records.append(record)
            self.appends += 1
            if self.fsync_policy == "always":
                self._fsync_locked()
            elif self.fsync_policy == "batch":
                self._unsynced += 1
                if self._unsynced >= self.batch_records:
                    self._fsync_locked()
            return lsn

    def _fsync_locked(self) -> None:
        faults.hit("wal.fsync")
        self._file.flush()
        os.fsync(self._file.fileno())
        self._unsynced = 0
        self.fsyncs += 1

    def append_delta(self, delta: GraphDelta,
                     base: Optional[str],
                     banks_reweight: bool = False) -> int:
        """Log one delta against base snapshot ``base``; returns its
        LSN. This MUST happen before the engine applies the delta —
        WAL-before-apply is the whole durability argument."""
        return self._append({
            "type": "delta",
            "base": base,
            "banks_reweight": bool(banks_reweight),
            "delta": delta_to_wire(delta),
        })

    def append_checkpoint(self, snapshot_id: str, folded: int) -> int:
        """Log that ``snapshot_id`` materializes every delta with
        ``lsn <= folded`` — the new replay base."""
        lsn = self._append({"type": "checkpoint", "base": snapshot_id,
                            "snapshot": snapshot_id, "folded": folded})
        self.sync()
        return lsn

    def append_compact(self, base: Optional[str],
                       through: int) -> int:
        """Log a compaction *attempt* (an audit marker: which deltas
        the compactor set out to fold, from which base)."""
        return self._append({"type": "compact", "base": base,
                             "through": through})

    def sync(self) -> None:
        """Force an fsync now (no-op with policy ``off``)."""
        with self._lock:
            if self.fsync_policy != "off" and not self._file.closed:
                self._fsync_locked()

    # ------------------------------------------------------------------
    # truncation (after a checkpoint folded a prefix away)
    # ------------------------------------------------------------------
    def truncate(self, folded: int) -> int:
        """Drop records with ``lsn <= folded``; returns how many.

        Rewrites the file atomically (temp + ``os.replace``) keeping
        the suffix byte-identical, so a reader holding the old file
        sees a complete history and a reader opening the new one sees
        the same suffix — LSNs are never renumbered.
        """
        with self._lock:
            keep = [r for r in self._records if r["lsn"] > folded]
            dropped = len(self._records) - len(keep)
            if dropped == 0:
                return 0
            tmp = self.path.with_name(self.path.name + ".compact")
            with open(tmp, "wb") as handle:
                for record in keep:
                    handle.write(encode_record(record))
                handle.flush()
                os.fsync(handle.fileno())
            self._file.close()
            os.replace(tmp, self.path)
            self._file = open(self.path, "ab")
            self._records = keep
            self._bytes = self.path.stat().st_size
            self._unsynced = 0
            self.truncations += 1
            return dropped

    def close(self) -> None:
        """Flush, fsync (unless ``off``), and close the append handle."""
        with self._lock:
            if self._file.closed:
                return
            self._file.flush()
            if self.fsync_policy != "off":
                os.fsync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    @property
    def lsn(self) -> int:
        """LSN of the last appended record (0 for an empty log)."""
        return self._lsn

    @property
    def wal_bytes(self) -> int:
        """Current on-disk size of the log in bytes."""
        return self._bytes

    def records(self) -> List[Dict[str, Any]]:
        """A stable copy of every record currently in the log."""
        with self._lock:
            return list(self._records)

    @property
    def pending_count(self) -> int:
        """Delta records not yet folded into any checkpoint."""
        return len(pending_deltas(self.records()))

    def pending(self, snapshot_id: Optional[str] = None
                ) -> List[Dict[str, Any]]:
        """Delta records an engine serving ``snapshot_id`` must
        replay (see :func:`pending_deltas`)."""
        return pending_deltas(self.records(), snapshot_id)

    def as_dict(self) -> Dict[str, Any]:
        """Counters + gauges for ``/healthz`` and ``/metrics``."""
        return {
            "path": str(self.path),
            "fsync": self.fsync_policy,
            "lsn": self.lsn,
            "bytes": self.wal_bytes,
            "records": len(self._records),
            "pending_deltas": self.pending_count,
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "truncations": self.truncations,
            "replayed": self.replayed,
        }

    def __repr__(self) -> str:
        return (f"WriteAheadLog(path={str(self.path)!r}, "
                f"lsn={self._lsn}, fsync={self.fsync_policy!r})")


# ----------------------------------------------------------------------
# read-only helpers (workers, prune, recovery)
# ----------------------------------------------------------------------
def read_wal(path: PathLike) -> List[Dict[str, Any]]:
    """Every intact record at ``path``; tolerant of a torn tail.

    Read-only: a torn tail is simply ignored (not repaired — the
    writer owns the file), while mid-stream damage still raises
    :class:`~repro.exceptions.WalCorruptionError`. A missing file is
    an empty log.
    """
    path = Path(path)
    if not path.exists():
        return []
    return scan_records(path.read_bytes()).records


def _resolve(source: WalSource) -> List[Dict[str, Any]]:
    """Records from a path, a live :class:`WriteAheadLog`, or a
    record list."""
    if isinstance(source, list):
        return source
    if isinstance(source, WriteAheadLog):
        return source.records()
    return read_wal(source)


def folded_lsn(records: List[Dict[str, Any]],
               snapshot_id: Optional[str] = None) -> int:
    """Highest LSN already materialized for ``snapshot_id``.

    ``None`` means "the log's own frontier": the newest checkpoint's
    fold point regardless of snapshot. With a concrete id, the newest
    checkpoint *for that snapshot* wins; a snapshot that only ever
    appears as a delta base folds nothing (replaying the full history
    onto it reproduces the current state — the linear-history
    invariant). An id the log has never recorded raises
    :class:`~repro.exceptions.WalError`.
    """
    checkpoints = [r for r in records if r["type"] == "checkpoint"]
    if snapshot_id is None:
        return max((c["folded"] for c in checkpoints), default=0)
    folded = [c["folded"] for c in checkpoints
              if c.get("snapshot") == snapshot_id]
    if folded:
        return max(folded)
    known: Set[Optional[str]] = {
        r.get("base") for r in records if r["type"] == "delta"}
    if snapshot_id in known \
            or not any(r["type"] == "delta" for r in records):
        return 0
    raise WalError(
        f"WAL does not describe snapshot {snapshot_id!r} (bases: "
        f"{sorted(str(k) for k in known)}); replaying it would "
        f"corrupt the engine")


def pending_deltas(records: List[Dict[str, Any]],
                   snapshot_id: Optional[str] = None
                   ) -> List[Dict[str, Any]]:
    """Delta records an engine serving ``snapshot_id`` must replay,
    in LSN order."""
    folded = folded_lsn(records, snapshot_id)
    return [r for r in records
            if r["type"] == "delta" and r["lsn"] > folded]


def base_snapshot(records: List[Dict[str, Any]]) -> Optional[str]:
    """The snapshot id the log's pending deltas apply on top of:
    the newest checkpoint's snapshot, else the first delta's base."""
    base: Optional[str] = None
    for record in records:
        if record["type"] == "checkpoint":
            base = record.get("snapshot")
        elif record["type"] == "delta" and base is None:
            base = record.get("base")
    return base


def protected_snapshots(source: WalSource) -> Set[str]:
    """Snapshot ids a live WAL still depends on.

    ``SnapshotStore.prune`` must never delete these: the replay base
    (:func:`base_snapshot`) and every base a pending delta was
    acknowledged against — losing one turns a clean restart into an
    unrecoverable :class:`~repro.exceptions.WalError`.
    """
    records = _resolve(source)
    protected = {r.get("base") for r in pending_deltas(records)}
    protected.add(base_snapshot(records))
    return {sid for sid in protected if sid is not None}


def replay(engine: "QueryEngine", source: WalSource) -> int:
    """Apply the engine's pending deltas from the WAL; returns count.

    The engine must be serving an unmodified snapshot (its
    ``snapshot_id`` anchors the fold point). Each record passes the
    ``wal.replay.record`` failpoint, then goes through the engine's
    ordinary ``apply_delta`` with its LSN — which both advances the
    engine's ``applied_lsn`` high-water mark and makes a later
    re-delivery of the same LSN (a broadcast racing a respawn's
    replay) a no-op. Replay is deterministic, so a replayed engine is
    byte-identical to one that applied the deltas live — the
    crash-recovery property test asserts exactly that.
    """
    snapshot_id = engine.snapshot_id
    if snapshot_id is None:
        raise WalError(
            "WAL replay needs an engine serving an unmodified "
            "snapshot (snapshot_id is None)")
    records = _resolve(source)
    pending = pending_deltas(records, snapshot_id)
    applied = 0
    for record in pending:
        faults.hit("wal.replay.record")
        delta = delta_from_wire(record["delta"])
        engine.apply_delta(delta,
                           bool(record.get("banks_reweight")),
                           lsn=record["lsn"])
        applied += 1
    if isinstance(source, WriteAheadLog):
        source.replayed += applied
    return applied
