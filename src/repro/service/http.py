"""Cross-box snapshot transfer over the service's HTTP surface.

Shard backends (and any :class:`~repro.service.server.CommunityService`
configured with a snapshot store) speak four admin routes that move a
snapshot between boxes with **no shared filesystem**:

* ``POST /admin/snapshot`` — begin a transfer; body carries the
  snapshot's ``manifest.json`` as ``{"manifest": {...}}``. Returns
  ``{"snapshot", "complete", "sections_needed"}`` — a snapshot the
  store already holds comes back ``complete`` with nothing needed, so
  re-pushing is idempotent and free.
* ``PUT /admin/snapshot/{id}/{section}`` — one section's stored (wire)
  bytes, verified against the manifest's length and SHA-256 by
  :class:`~repro.snapshot.store.SnapshotIngest` before staging. A
  checksum mismatch answers ``400`` and discards the transfer.
* ``POST /admin/snapshot/{id}/commit`` — atomically publish the fully
  received snapshot into the store and repoint ``LATEST``.
* ``DELETE /admin/snapshot/{id}`` — abort and discard the staging.

And two read routes for the pull direction:

* ``GET /admin/snapshot/{id}/manifest`` — the manifest JSON;
* ``GET /admin/snapshot/{id}/{section}`` — the section's stored bytes
  (``application/octet-stream``); integrity metadata travels in the
  manifest, so a sibling box can mirror a snapshot straight out of a
  live store and verify every byte locally.

The client-side helpers drive whole transfers:
:func:`push_snapshot` ships a local snapshot directory to a remote
store (begin → PUT sections → commit, aborting on failure), and
:func:`fetch_snapshot` mirrors a remote snapshot into a local store.
The router's cross-box reload is ``push_snapshot`` per shard followed
by ``POST /admin/reload {"snapshot": id}`` — the backend resolves the
id against its own store, so no filesystem path ever crosses a box
boundary.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.exceptions import (
    SnapshotError,
    SnapshotNotFoundError,
)
from repro.service.errors import BadRequest, NotFound
from repro.snapshot.snapshot import MANIFEST_NAME, read_manifest
from repro.snapshot.store import SnapshotIngest, SnapshotStore

#: Content type for raw snapshot section payloads.
OCTET_CONTENT_TYPE = "application/octet-stream"


class SnapshotTransfer:
    """Server-side state for in-flight cross-box snapshot transfers.

    One per service; holds at most a handful of pending
    :class:`~repro.snapshot.store.SnapshotIngest` stagings keyed by
    snapshot id. The service's routes call it directly; all methods
    raise the service error taxonomy (``400``/``404``).
    """

    def __init__(self, store_root: Union[str, Path]) -> None:
        self.store = SnapshotStore(store_root)
        self._ingests: Dict[str, SnapshotIngest] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # receive (push target)
    # ------------------------------------------------------------------
    def begin(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Open a transfer for the manifest in ``payload``."""
        manifest = payload.get("manifest")
        if not isinstance(manifest, dict):
            raise BadRequest(
                "'manifest' must be the snapshot manifest object")
        try:
            ingest = self.store.ingest(manifest)
        except SnapshotError as error:
            raise BadRequest(str(error))
        snapshot_id = ingest.snapshot_id
        try:
            self.store.resolve(snapshot_id)
        except SnapshotNotFoundError:
            pass
        else:
            # Content-addressed ids make re-pushes free: the bytes
            # are already here, just repoint latest.
            ingest.abort()
            self.store._point_latest(snapshot_id)
            return {"snapshot": snapshot_id, "complete": True,
                    "sections_needed": []}
        with self._lock:
            stale = self._ingests.pop(snapshot_id, None)
            self._ingests[snapshot_id] = ingest
        if stale is not None:
            stale.abort()
        return {"snapshot": snapshot_id, "complete": False,
                "sections_needed": ingest.sections_needed}

    def receive(self, snapshot_id: str, section: str,
                body: bytes) -> Dict[str, Any]:
        """Verify and stage one pushed section."""
        ingest = self._pending(snapshot_id)
        try:
            ingest.write_section(section, body)
        except SnapshotError as error:
            # The payload failed verification; the transfer is dead
            # weight — discard it so a crashed push leaves nothing.
            with self._lock:
                self._ingests.pop(snapshot_id, None)
            ingest.abort()
            raise BadRequest(str(error))
        return {"snapshot": snapshot_id, "section": section,
                "sections_needed": ingest.sections_needed}

    def commit(self, snapshot_id: str) -> Dict[str, Any]:
        """Publish a fully received transfer atomically."""
        ingest = self._pending(snapshot_id)
        try:
            path = ingest.commit()
        except SnapshotError as error:
            raise BadRequest(str(error))
        finally:
            with self._lock:
                self._ingests.pop(snapshot_id, None)
        return {"snapshot": snapshot_id, "committed": True,
                "path": str(path)}

    def abort(self, snapshot_id: str) -> Dict[str, Any]:
        """Discard a pending transfer (idempotent)."""
        with self._lock:
            ingest = self._ingests.pop(snapshot_id, None)
        if ingest is not None:
            ingest.abort()
        return {"snapshot": snapshot_id, "aborted": ingest is not None}

    def _pending(self, snapshot_id: str) -> SnapshotIngest:
        """The open ingest for ``snapshot_id`` (404 when none)."""
        with self._lock:
            ingest = self._ingests.get(snapshot_id)
        if ingest is None:
            raise NotFound(
                f"no open snapshot transfer for {snapshot_id!r} "
                f"(begin with POST /admin/snapshot)")
        return ingest

    # ------------------------------------------------------------------
    # serve (pull source)
    # ------------------------------------------------------------------
    def manifest_of(self, snapshot_id: str) -> Dict[str, Any]:
        """The manifest of a published snapshot."""
        try:
            return read_manifest(self.store.resolve(snapshot_id))
        except SnapshotNotFoundError as error:
            raise NotFound(str(error))
        except SnapshotError as error:
            raise BadRequest(str(error))

    def section_of(self, snapshot_id: str, section: str) -> bytes:
        """One section's stored (wire) bytes."""
        manifest = self.manifest_of(snapshot_id)
        entry = manifest.get("sections", {}).get(section)
        if entry is None:
            raise NotFound(
                f"snapshot {snapshot_id} has no section "
                f"{section!r}")
        path = self.store.resolve(snapshot_id) / entry["file"]
        if not path.is_file():
            raise NotFound(f"snapshot section {path} is missing")
        return path.read_bytes()


# ----------------------------------------------------------------------
# client-side drivers
# ----------------------------------------------------------------------
def push_snapshot(client: Any, snapshot_dir: Union[str, Path]
                  ) -> Dict[str, Any]:
    """Ship a local snapshot directory into a remote service's store.

    ``client`` is a :class:`~repro.service.client.ServiceClient` (or
    anything with its ``request``/``request_raw`` shape) pointed at
    the receiving service. Drives begin → section PUTs → commit; any
    failure aborts the remote staging before re-raising, so a torn
    push leaves the remote store untouched. Returns the final
    ``{"snapshot", ...}`` payload (``complete: True`` short-circuits
    when the remote store already held the content).
    """
    snapshot_dir = Path(snapshot_dir)
    manifest = json.loads(
        (snapshot_dir / MANIFEST_NAME).read_text(encoding="utf-8"))
    begin = client.request("POST", "/admin/snapshot",
                           {"manifest": manifest}, idempotent=True)
    if begin.get("complete"):
        return begin
    snapshot_id = begin["snapshot"]
    try:
        for name in begin.get("sections_needed", []):
            entry = manifest["sections"][name]
            stored = (snapshot_dir / entry["file"]).read_bytes()
            client.request_raw(
                "PUT", f"/admin/snapshot/{snapshot_id}/{name}",
                stored, idempotent=True)
        return client.request(
            "POST", f"/admin/snapshot/{snapshot_id}/commit", {},
            idempotent=True)
    except BaseException:
        try:
            client.request("DELETE",
                           f"/admin/snapshot/{snapshot_id}")
        except Exception:
            pass             # best effort; staging dies with the box
        raise


def fetch_snapshot(client: Any, snapshot_id: str,
                   store: SnapshotStore) -> Path:
    """Mirror a remote snapshot into a local store over GETs.

    The pull direction of :func:`push_snapshot`: fetch the manifest,
    ingest each section's stored bytes (checksum-verified locally),
    and publish atomically. Returns the local snapshot directory.
    """
    manifest = client.request(
        "GET", f"/admin/snapshot/{snapshot_id}/manifest")
    ingest = store.ingest(manifest)
    try:
        for name in ingest.sections_needed:
            body, _ = client.request_raw(
                "GET", f"/admin/snapshot/{snapshot_id}/{name}")
            ingest.write_section(name, body)
        return ingest.commit()
    except BaseException:
        ingest.abort()
        raise


def snapshot_store_of(source: Optional[Union[str, Path]]
                      ) -> Optional[Path]:
    """The snapshot-store root implied by a serve-time source.

    A store root (has a ``LATEST`` pointer, or is a bare/empty
    directory) is itself; a snapshot directory implies its parent
    (the conventional ``store/<id>`` layout). ``None`` stays
    ``None`` — the service then refuses transfer requests.
    """
    if source is None:
        return None
    source = Path(source)
    if (source / MANIFEST_NAME).is_file():
        return source.parent
    return source
