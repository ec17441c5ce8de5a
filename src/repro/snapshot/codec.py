"""Provenance encoding for the snapshot ``nodes.json`` section.

A node's provenance is its source tuple's ``(table, primary key)``;
composite keys are tuples, which JSON turns into lists. These helpers
translate between the in-memory form and the JSON-able one, so a
graph's provenance round-trips exactly through a snapshot.
"""

from __future__ import annotations

from typing import List, Optional

from repro.graph.database_graph import Provenance


def encode_pk(pk: object) -> object:
    """A primary key as JSON-able data (tuples become lists)."""
    if isinstance(pk, tuple):
        return [encode_pk(part) for part in pk]
    return pk


def decode_pk(pk: object) -> object:
    """Restore composite-key tuples JSON turned into lists."""
    if isinstance(pk, list):
        return tuple(decode_pk(part) for part in pk)
    return pk


def encode_provenance(entry: Optional[Provenance]) -> Optional[List]:
    """One node's ``(table, pk)`` provenance as JSON-able data."""
    if entry is None:
        return None
    return [entry[0], encode_pk(entry[1])]


def decode_provenance(entry: Optional[List]) -> Optional[Provenance]:
    """Inverse of :func:`encode_provenance`."""
    if entry is None:
        return None
    return (entry[0], decode_pk(entry[1]))
