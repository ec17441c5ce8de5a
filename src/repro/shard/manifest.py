"""The routing manifest: the one document a router needs.

A partition run (:func:`repro.shard.partition.partition_snapshot`)
writes ``routing.json`` next to the per-shard snapshot stores::

    out/
      routing.json          <- this module's document
      shards/
        00/                 <- a SnapshotStore (LATEST + sn-... dirs)
        01/

The manifest carries, for every shard: the published snapshot id
(digest), the relative store path and the snapshot's counts. Every
shard holds the base snapshot's graph and index and answers in
global ``G_D`` ids, so the router keeps no per-keyword or per-node
state: every query goes to every shard, which refuses what the
single box refuses, and the one ownership rule
(:func:`~repro.shard.partition.owning_shard`) checks each answer's
anchor (see :mod:`repro.shard`).

Version 4 manifests hold no per-node or per-keyword state; version 3
also kept an ownership array and a keyword filter. Versions 1 to 3
are refused with a typed error telling the operator to re-run
``snapshot partition``.

Writing is atomic (temp file + ``os.replace``) so a router re-reading
the manifest during a republish never sees a torn document, matching
the :class:`~repro.snapshot.store.SnapshotStore` publish discipline.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.exceptions import SnapshotFormatError, SnapshotNotFoundError

PathLike = Union[str, Path]

#: File name of the routing manifest inside a partition root.
ROUTING_NAME = "routing.json"

#: Manifest format version; bump on breaking layout changes. Version
#: 4: no ownership map and no keyword filter — a shard's ownership is
#: one rule, and a shard refuses an unknown keyword itself.
ROUTING_VERSION = 4


@dataclass
class ShardEntry:
    """One shard's row in the routing manifest."""

    #: Dense shard index (0-based; shard ``i`` serves store
    #: ``shards/{i:02d}`` by convention).
    shard_id: int
    #: Content-addressed id of the shard's published snapshot.
    snapshot_id: str
    #: Store path relative to the partition root.
    store: str
    #: How many of the graph's nodes the shard owns.
    owned_nodes: int
    #: Shard snapshot counts (nodes/edges/vocab as in the snapshot
    #: manifest; ``nodes`` is the whole graph's).
    counts: Dict[str, int]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding of the row."""
        return {
            "shard_id": self.shard_id,
            "snapshot_id": self.snapshot_id,
            "store": self.store,
            "owned_nodes": self.owned_nodes,
            "counts": dict(self.counts),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardEntry":
        """Decode :meth:`to_dict` output."""
        return cls(
            shard_id=int(payload["shard_id"]),
            snapshot_id=str(payload["snapshot_id"]),
            store=str(payload["store"]),
            owned_nodes=int(payload["owned_nodes"]),
            counts={k: int(v)
                    for k, v in payload["counts"].items()},
        )


class RoutingManifest:
    """The shard table of one partitioned snapshot."""

    def __init__(self, shards: Sequence[ShardEntry],
                 index_radius: float,
                 source_snapshot: Optional[str] = None,
                 created_at: Optional[str] = None) -> None:
        self.shards = list(shards)
        self.index_radius = float(index_radius)
        self.source_snapshot = source_snapshot
        self.created_at = created_at

    # -- identity -------------------------------------------------------
    @property
    def generation(self) -> str:
        """A content-derived token naming this shard configuration.

        Hashes the ordered shard snapshot ids, which digest content
        only (not build times), so republishing identical content,
        or partitioning the same source again, yields the same
        generation — the router's analogue of the engine adopting a
        snapshot id as its generation.
        """
        digest = hashlib.sha256(
            "|".join(e.snapshot_id for e in self.shards)
            .encode("utf-8")).hexdigest()
        return f"rt-{digest[:12]}"

    @property
    def total_nodes(self) -> int:
        """Global node count: every shard holds the whole graph."""
        return self.shards[0].counts["nodes"] if self.shards else 0

    # -- persistence ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding of the whole manifest.

        Each shard row also carries ``node_map``, every global node
        id: readers of earlier layouts measure a shard's share of the
        graph from it and ``total_nodes``. Nothing here reads either
        back.
        """
        every_node = list(range(self.total_nodes))
        return {
            "version": ROUTING_VERSION,
            "kind": "routing-manifest",
            "generation": self.generation,
            "created_at": self.created_at,
            "source_snapshot": self.source_snapshot,
            "index_radius": self.index_radius,
            "total_nodes": self.total_nodes,
            "shards": [dict(e.to_dict(), node_map=every_node)
                       for e in self.shards],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RoutingManifest":
        """Decode :meth:`to_dict` output, validating the envelope."""
        if payload.get("kind") != "routing-manifest":
            raise SnapshotFormatError(
                "not a routing manifest (missing kind marker)")
        version = payload.get("version")
        if version != ROUTING_VERSION:
            raise SnapshotFormatError(
                f"routing manifest version {version!r} is not "
                f"supported (expected {ROUTING_VERSION}); re-run "
                f"'python -m repro snapshot partition' to rebuild the "
                f"fleet")
        return cls(
            shards=[ShardEntry.from_dict(e)
                    for e in payload["shards"]],
            index_radius=float(payload["index_radius"]),
            source_snapshot=payload.get("source_snapshot"),
            created_at=payload.get("created_at"),
        )

    def save(self, root: PathLike) -> Path:
        """Atomically write ``routing.json`` under ``root``."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        target = root / ROUTING_NAME
        fd, tmp = tempfile.mkstemp(prefix=".routing-", dir=str(root))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return target

    @classmethod
    def load(cls, path: PathLike) -> "RoutingManifest":
        """Read a manifest from a partition root or the file itself."""
        path = Path(path)
        if path.is_dir():
            path = path / ROUTING_NAME
        if not path.is_file():
            raise SnapshotNotFoundError(
                f"{path} is not a routing manifest")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise SnapshotFormatError(
                f"routing manifest {path} is not valid JSON: {error}")
        return cls.from_dict(payload)

    def store_path(self, root: PathLike, shard_id: int) -> Path:
        """Absolute store directory of shard ``shard_id``."""
        return Path(root) / self.shards[shard_id].store

    def __repr__(self) -> str:
        return (f"RoutingManifest(shards={len(self.shards)}, "
                f"nodes={self.total_nodes}, "
                f"generation={self.generation!r})")


def is_routing_root(path: PathLike) -> bool:
    """Whether ``path`` is a partition root (or the manifest file)."""
    path = Path(path)
    if path.is_file():
        return path.name == ROUTING_NAME
    return (path / ROUTING_NAME).is_file()
