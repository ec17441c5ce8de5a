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
shard holds the base snapshot's graph and index, so one
:class:`KeywordBloom` over the base index's vocabulary lets the
router 400 an unknown keyword without a fan-out, and shard answers
are already in global ``G_D`` ids. One global ``owners`` array
(global node id -> owning shard) backs the router's ownership check:
every answer a shard returns must be anchored on a node that shard
owns (see :mod:`repro.shard`).

Version 3 manifests name shard snapshots that are the base snapshot
plus their ``owned`` section. Versions 1 and 2 named shards that
each held a relabeled subgraph in local ids (and, in version 1, no
owned set); they are refused with a typed error telling the operator
to re-run ``snapshot partition``.

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
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.exceptions import SnapshotFormatError, SnapshotNotFoundError

PathLike = Union[str, Path]

#: File name of the routing manifest inside a partition root.
ROUTING_NAME = "routing.json"

#: Manifest format version; bump on breaking layout changes. Version
#: 3: every shard snapshot is the base snapshot plus its ``owned``
#: section, so shard answers need no relabeling.
ROUTING_VERSION = 3

#: Bloom sizing: bits per vocabulary entry (~1% false positives at
#: seven hashes).
_BLOOM_BITS_PER_KEY = 10

#: Number of hash probes per key.
_BLOOM_HASHES = 7


class KeywordBloom:
    """A tiny stdlib Bloom filter over the fleet's keyword vocabulary.

    No false negatives: an indexed keyword always probes positive, so
    the router never refuses a query the fleet could answer. A false
    positive only costs a fan-out whose legs answer empty. Hashing is
    ``sha256(salt || key)`` so the bit pattern is stable across
    processes and Python versions — the filter round-trips through
    JSON as a hex string.
    """

    def __init__(self, bits: int, hashes: int,
                 bitmap: bytearray) -> None:
        if bits <= 0 or hashes <= 0:
            raise SnapshotFormatError(
                f"bloom needs positive geometry, got bits={bits} "
                f"hashes={hashes}")
        if len(bitmap) != (bits + 7) // 8:
            raise SnapshotFormatError(
                f"bloom bitmap has {len(bitmap)} bytes for {bits} "
                f"bits")
        self.bits = bits
        self.hashes = hashes
        self.bitmap = bitmap

    @classmethod
    def build(cls, keys: Iterable[str],
              bits_per_key: int = _BLOOM_BITS_PER_KEY,
              hashes: int = _BLOOM_HASHES) -> "KeywordBloom":
        """A filter sized for ``keys`` (minimum 64 bits)."""
        keys = list(keys)
        bits = max(64, bits_per_key * len(keys))
        bloom = cls(bits, hashes, bytearray((bits + 7) // 8))
        for key in keys:
            bloom.add(key)
        return bloom

    def _probes(self, key: str) -> Iterable[int]:
        """The bit positions ``key`` maps to."""
        data = key.encode("utf-8")
        for salt in range(self.hashes):
            digest = hashlib.sha256(bytes([salt]) + data).digest()
            yield int.from_bytes(digest[:8], "big") % self.bits

    def add(self, key: str) -> None:
        """Set the key's bits."""
        for position in self._probes(key):
            self.bitmap[position // 8] |= 1 << (position % 8)

    def might_contain(self, key: str) -> bool:
        """``False`` means definitely absent; ``True`` means maybe."""
        return all(self.bitmap[p // 8] & (1 << (p % 8))
                   for p in self._probes(key))

    # -- JSON round-trip ------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding (geometry + hex bitmap)."""
        return {"bits": self.bits, "hashes": self.hashes,
                "bitmap": bytes(self.bitmap).hex()}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "KeywordBloom":
        """Decode :meth:`to_dict` output."""
        return cls(int(payload["bits"]), int(payload["hashes"]),
                   bytearray(bytes.fromhex(payload["bitmap"])))


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
    """The shard table + ownership map + keyword routing summary."""

    def __init__(self, shards: Sequence[ShardEntry],
                 owners: Sequence[int], bloom: KeywordBloom,
                 index_radius: float,
                 source_snapshot: Optional[str] = None,
                 created_at: Optional[str] = None) -> None:
        self.shards = list(shards)
        #: ``owners[g]`` is the shard id owning global node ``g``.
        self.owners = list(owners)
        #: Bloom summary of the base index's keywords.
        self.bloom = bloom
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
        """Global node count (the length of the ownership map)."""
        return len(self.owners)

    def owner_of(self, global_node: int) -> int:
        """The shard id owning ``global_node``."""
        return self.owners[global_node]

    # -- keyword routing ------------------------------------------------
    def keyword_known(self, keyword: str) -> bool:
        """Whether the fleet may index ``keyword``.

        ``False`` is definitive (Blooms have no false negatives), so
        the router can 400 an unknown keyword without a fan-out, just
        like a single-snapshot server's ``require_keyword``.
        """
        return self.bloom.might_contain(keyword)

    def shards_for(self, keywords: Sequence[str]) -> List[int]:
        """Shard ids a query on ``keywords`` fans out to: every shard
        when the Bloom admits every keyword (each shard holds the
        whole index), none otherwise."""
        if not all(self.keyword_known(kw) for kw in keywords):
            return []
        return [e.shard_id for e in self.shards]

    # -- persistence ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding of the whole manifest.

        Each shard row also carries ``node_map``, every global node
        id: readers of earlier layouts measure a shard's share of the
        graph from it. Nothing here reads it back.
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
            "owners": list(self.owners),
            "bloom": self.bloom.to_dict(),
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
            owners=[int(s) for s in payload["owners"]],
            bloom=KeywordBloom.from_dict(payload["bloom"]),
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
