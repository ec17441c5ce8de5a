"""Snapshot store: atomic publish, ``latest`` resolution, pruning.

A :class:`SnapshotStore` is a directory of published snapshots, one
subdirectory per snapshot id, plus a ``LATEST`` pointer file::

    store/
      LATEST               one line: the id of the newest snapshot
      sn-1a2b3c4d5e6f/     a snapshot directory (see repro.snapshot)
      sn-aabbccddeeff/

Publishing is crash-safe: the snapshot is written to a temporary
sibling directory and moved into place with one ``os.replace``-style
rename, then ``LATEST`` is repointed the same way. A reader never
observes a half-written snapshot — it either sees the old ``LATEST``
or the new one.

Because snapshot ids are content-derived, publishing identical content
twice is idempotent: the second publish sees the id already present
and only repoints ``LATEST``.

**Cross-box ingest.** :meth:`SnapshotStore.ingest` accepts a snapshot
manifest produced elsewhere and returns a :class:`SnapshotIngest`
that receives the section payloads one at a time (the wire form is
the stored file bytes), verifying each against the manifest's length
and SHA-256 before it touches the store. The transfer stages in a
hidden sibling directory and only an explicit
:meth:`SnapshotIngest.commit` renames it into place — a torn or
corrupted transfer never becomes visible, which is what lets a router
push shard snapshots to backends with no shared filesystem.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import faults
from repro.exceptions import (
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
)
from repro.graph.database_graph import DatabaseGraph
from repro.snapshot.snapshot import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    Snapshot,
    load_snapshot,
    read_manifest,
    require_uncompressed,
    write_snapshot,
)
from repro.text.inverted_index import CommunityIndex

PathLike = Union[str, Path]

_LATEST = "LATEST"


class SnapshotStore:
    """A directory of immutable snapshots with a ``latest`` pointer."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # publish
    # ------------------------------------------------------------------
    def publish(self, dbg: DatabaseGraph,
                index: Optional[CommunityIndex] = None,
                provenance: Optional[Dict[str, Any]] = None,
                owned: Optional[Sequence[int]] = None) -> Snapshot:
        """Write a snapshot into the store and repoint ``latest``.

        The artifact is staged in a temporary directory inside the
        store (same filesystem, so the final rename is atomic) and
        moved to ``<root>/<id>`` only once fully written. Republishing
        content already in the store just repoints ``latest``.
        ``owned`` is a shard's owned-node section (see
        :func:`~repro.snapshot.snapshot.write_snapshot`).
        """
        staging = Path(tempfile.mkdtemp(prefix=".staging-",
                                        dir=str(self.root)))
        try:
            snapshot = write_snapshot(staging, dbg, index=index,
                                      provenance=provenance,
                                      owned=owned)
            final = self.root / snapshot.id
            if final.exists():
                # Content-identical snapshot already published.
                shutil.rmtree(staging)
            else:
                os.replace(staging, final)
            snapshot.path = final
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self._point_latest(snapshot.id)
        return snapshot

    def _point_latest(self, snapshot_id: str) -> None:
        """Atomically repoint the ``LATEST`` file at ``snapshot_id``."""
        fd, tmp = tempfile.mkstemp(prefix=".latest-",
                                   dir=str(self.root))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(snapshot_id + "\n")
            os.replace(tmp, self.root / _LATEST)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # ------------------------------------------------------------------
    # cross-box ingest
    # ------------------------------------------------------------------
    def ingest(self, manifest: Dict[str, Any]) -> "SnapshotIngest":
        """Begin receiving a snapshot built elsewhere.

        ``manifest`` is the remote snapshot's ``manifest.json`` as a
        dict; its format, version, and content-derived id are
        validated up front (the id is recomputed from the section
        checksums, so a tampered manifest is rejected before any
        bytes move), and a manifest flagging gzip-compressed sections
        is refused (see
        :func:`~repro.snapshot.snapshot.require_uncompressed`).
        Returns a :class:`SnapshotIngest` to feed the section
        payloads into.
        """
        return SnapshotIngest(self, manifest)

    # ------------------------------------------------------------------
    # resolve / load
    # ------------------------------------------------------------------
    def latest_id(self) -> str:
        """The id ``latest`` points at.

        Raises :class:`~repro.exceptions.SnapshotNotFoundError` when
        the store has never published.
        """
        pointer = self.root / _LATEST
        if not pointer.is_file():
            raise SnapshotNotFoundError(
                f"store {self.root} has no published snapshot")
        snapshot_id = pointer.read_text(encoding="utf-8").strip()
        if not snapshot_id:
            raise SnapshotNotFoundError(
                f"store {self.root} has an empty {_LATEST} pointer")
        return snapshot_id

    def resolve(self, ref: str = "latest") -> Path:
        """The directory of snapshot ``ref`` (an id, or ``latest``)."""
        snapshot_id = self.latest_id() if ref == "latest" else ref
        path = self.root / snapshot_id
        if not (path / MANIFEST_NAME).is_file():
            raise SnapshotNotFoundError(
                f"store {self.root} has no snapshot {snapshot_id!r}")
        return path

    def load(self, ref: str = "latest",
             verify: bool = True) -> Snapshot:
        """Load snapshot ``ref`` (checksum-verified by default)."""
        return load_snapshot(self.resolve(ref), verify=verify)

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def list(self) -> List[Dict[str, Any]]:
        """Manifests of every published snapshot, newest first.

        Ordering is by ``created_at`` (build time) then id; the entry
        currently pointed at by ``latest`` carries ``"latest": True``.
        """
        try:
            latest = self.latest_id()
        except SnapshotNotFoundError:
            latest = None
        manifests = []
        for child in self.root.iterdir():
            if not child.is_dir() or child.name.startswith("."):
                continue
            if not (child / MANIFEST_NAME).is_file():
                continue
            manifest = dict(read_manifest(child))
            manifest["latest"] = manifest["id"] == latest
            manifests.append(manifest)
        manifests.sort(key=lambda mf: (mf["created_at"], mf["id"]),
                       reverse=True)
        return manifests

    def prune(self, keep: int = 2,
              wal: Optional[PathLike] = None) -> List[str]:
        """Delete all but the ``keep`` newest snapshots.

        The ``latest`` snapshot is never deleted regardless of age.
        With ``wal`` given (the path of a delta write-ahead log), the
        snapshots the log still depends on — its replay base and the
        base of every pending delta — are also kept regardless of
        age: deleting one would turn the next ``serve --wal`` restart
        into an unrecoverable error. Returns the ids removed.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        protected: set = set()
        if wal is not None:
            from repro.wal.log import protected_snapshots
            protected = protected_snapshots(wal)
        removed: List[str] = []
        for manifest in self.list()[keep:]:
            if manifest["latest"] or manifest["id"] in protected:
                continue
            shutil.rmtree(self.root / manifest["id"])
            removed.append(manifest["id"])
        return removed

    def __repr__(self) -> str:
        return f"SnapshotStore(root={str(self.root)!r})"


class SnapshotIngest:
    """One in-flight snapshot transfer into a :class:`SnapshotStore`.

    Sections arrive as their stored file bytes and are verified
    section by section: check the byte length, check the SHA-256
    against the manifest. Everything stages under a hidden directory
    inside the store; :meth:`commit` atomically renames it into place
    and repoints ``LATEST``, :meth:`abort` discards it. A crashed or
    failed transfer is invisible to readers either way.
    """

    def __init__(self, store: SnapshotStore,
                 manifest: Dict[str, Any]) -> None:
        if manifest.get("format") != FORMAT_NAME:
            raise SnapshotFormatError(
                f"ingest manifest is not a {FORMAT_NAME} manifest")
        if manifest.get("version") != FORMAT_VERSION:
            raise SnapshotFormatError(
                f"ingest manifest has unsupported version "
                f"{manifest.get('version')!r} "
                f"(expected {FORMAT_VERSION})")
        require_uncompressed(manifest)
        sections = manifest.get("sections") or {}
        digest = hashlib.sha256()
        digest.update(f"{FORMAT_NAME}:{FORMAT_VERSION}".encode())
        for name in sorted(sections):
            digest.update(name.encode())
            digest.update(sections[name]["sha256"].encode())
        derived = f"sn-{digest.hexdigest()[:12]}"
        if manifest.get("id") != derived:
            raise SnapshotFormatError(
                f"ingest manifest id {manifest.get('id')!r} does not "
                f"match its section checksums ({derived})")
        self.store = store
        self.manifest = dict(manifest)
        self.snapshot_id: str = manifest["id"]
        self._sections: Dict[str, Dict[str, Any]] = dict(sections)
        self._received: Dict[str, bool] = {}
        self._staging: Optional[Path] = Path(tempfile.mkdtemp(
            prefix=".ingest-", dir=str(store.root)))

    @property
    def sections_needed(self) -> List[str]:
        """Manifest sections not yet received, in manifest order."""
        return [name for name in sorted(self._sections)
                if name not in self._received]

    def write_section(self, name: str, stored: bytes) -> None:
        """Receive one section's stored bytes, verify, and stage it.

        Verification failures raise
        :class:`~repro.exceptions.SnapshotIntegrityError` and leave
        the ingest usable — the caller may re-send the section.
        """
        if self._staging is None:
            raise SnapshotIntegrityError(
                f"ingest of {self.snapshot_id} is already closed")
        entry = self._sections.get(name)
        if entry is None:
            raise SnapshotFormatError(
                f"snapshot {self.snapshot_id} has no {name!r} "
                f"section")
        # Failpoint: damage the payload in flight (a torn proxy, a
        # bad NIC) so the checksum below is what catches it — the
        # exact cross-box detection path.
        raw = faults.corrupt(f"snapshot.transfer.{name}",
                             faults.corrupt("snapshot.transfer",
                                            stored))
        if len(raw) != entry["bytes"]:
            raise SnapshotIntegrityError(
                f"transferred section {name!r} of {self.snapshot_id} "
                f"is truncated: {len(raw)} bytes, manifest says "
                f"{entry['bytes']}")
        sha = hashlib.sha256(raw).hexdigest()
        if sha != entry["sha256"]:
            raise SnapshotIntegrityError(
                f"transferred section {name!r} of {self.snapshot_id} "
                f"failed its checksum (sha256 {sha[:12]}..., "
                f"manifest {entry['sha256'][:12]}...)")
        (self._staging / entry["file"]).write_bytes(raw)
        self._received[name] = True

    def commit(self) -> Path:
        """Publish the fully received snapshot atomically.

        Requires every manifest section; writes ``manifest.json``
        last (a reader recognizes a snapshot by its manifest, so the
        staging directory is never mistaken for one), renames into
        ``<root>/<id>``, and repoints ``LATEST``. Returns the final
        snapshot directory.
        """
        if self._staging is None:
            raise SnapshotIntegrityError(
                f"ingest of {self.snapshot_id} is already closed")
        missing = self.sections_needed
        if missing:
            raise SnapshotIntegrityError(
                f"ingest of {self.snapshot_id} is missing sections: "
                f"{', '.join(missing)}")
        (self._staging / MANIFEST_NAME).write_text(
            json.dumps(self.manifest, indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        final = self.store.root / self.snapshot_id
        if final.exists():
            # Content-identical snapshot already in the store.
            shutil.rmtree(self._staging)
        else:
            os.replace(self._staging, final)
        self._staging = None
        self.store._point_latest(self.snapshot_id)
        return final

    def abort(self) -> None:
        """Discard the staged transfer (idempotent)."""
        if self._staging is not None:
            shutil.rmtree(self._staging, ignore_errors=True)
            self._staging = None


def locate_snapshot(path: PathLike) -> Path:
    """Resolve ``path`` to a concrete snapshot directory.

    Accepts a snapshot directory itself, or a store root — in which
    case the store's ``latest`` snapshot is resolved. This is what CLI
    commands use so ``--snapshot`` works with either layout.
    """
    path = Path(path)
    if (path / MANIFEST_NAME).is_file():
        return path
    if (path / _LATEST).is_file():
        return SnapshotStore(path).resolve("latest")
    raise SnapshotNotFoundError(
        f"{path} is neither a snapshot directory nor a snapshot store")
