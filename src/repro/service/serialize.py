"""One JSON vocabulary for community answers and instrumentation.

The CLI's ``--json`` flag and every HTTP endpoint emit the same
shapes, produced here and nowhere else, so a client parsing
``python -m repro query --json`` output can parse a ``POST /query``
response with the same code:

* :func:`community_to_dict` — one answer: ``core``, ``cost``,
  ``centers``, ``pnodes``, ``nodes``, ``edges`` (and ``labels`` when a
  graph is supplied to resolve them);
* :func:`context_to_dict` — a :class:`~repro.engine.QueryContext`:
  per-stage ``timings`` (seconds), ``counters``, ``total_seconds``;
* :func:`spec_to_dict` — the query as executed;
* :func:`results_to_dict` — the full response envelope tying the
  three together.

Everything returned is plain lists/dicts/scalars, safe for
``json.dumps`` with no custom encoder.

The service writes the same bytes without rebuilding them per request.
:func:`community_json` encodes a community once and keeps the text on
the instance. The result cache hands every hit, k-slice and session
page the same instances, so a cached community is encoded once for as
long as its entry lives. :func:`render` is the one envelope writer: it
splices such texts (:class:`Raw` values) between the envelope's small
fields, and :func:`results_to_json` is ``json.dumps`` of
:func:`results_to_dict`, byte for byte.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.core.community import Community
from repro.engine.context import QueryContext
from repro.engine.spec import QuerySpec
from repro.graph.database_graph import DatabaseGraph


def community_to_dict(community: Community,
                      dbg: Optional[DatabaseGraph] = None
                      ) -> Dict[str, Any]:
    """One community as JSON-safe primitives.

    With ``dbg``, a ``labels`` map (node id, as a string key, to the
    node's label) is included so clients can render answers the way
    :meth:`Community.describe` does.
    """
    payload: Dict[str, Any] = {
        "core": list(community.core),
        "cost": community.cost,
        "centers": list(community.centers),
        "pnodes": list(community.pnodes),
        "nodes": list(community.nodes),
        "edges": [[u, v, w] for u, v, w in community.edges],
    }
    if dbg is not None:
        payload["labels"] = {
            str(u): dbg.label_of(u) for u in community.nodes}
    return payload


def context_to_dict(context: QueryContext) -> Dict[str, Any]:
    """A query context's timings and counters, JSON-safe."""
    return {
        "timings": {name: float(seconds)
                    for name, seconds in context.timings.items()},
        "counters": {name: int(value)
                     for name, value in context.counters.items()},
        "total_seconds": context.total_seconds,
    }


def spec_to_dict(spec: QuerySpec) -> Dict[str, Any]:
    """The executed query, echoed back for client-side bookkeeping."""
    return {
        "keywords": list(spec.keywords),
        "rmax": spec.rmax,
        "mode": spec.mode,
        "k": spec.k,
        "algorithm": spec.algorithm,
        "aggregate": spec.aggregate,
    }


def results_to_dict(results: Sequence[Community],
                    dbg: Optional[DatabaseGraph] = None,
                    context: Optional[QueryContext] = None,
                    spec: Optional[QuerySpec] = None,
                    elapsed_seconds: Optional[float] = None,
                    cached: Optional[bool] = None,
                    ) -> Dict[str, Any]:
    """The response envelope: answers plus optional query/stats echo.

    ``cached`` (when supplied) reports whether the answer was served
    entirely from the engine's generation-keyed result cache — a pure
    prefix lookup with no enumeration work.
    """
    return _envelope(len(results),
                     [community_to_dict(c, dbg) for c in results],
                     context, spec, elapsed_seconds, cached)


def results_to_json(results: Sequence[Community],
                    dbg: Optional[DatabaseGraph] = None,
                    context: Optional[QueryContext] = None,
                    spec: Optional[QuerySpec] = None,
                    elapsed_seconds: Optional[float] = None,
                    cached: Optional[bool] = None) -> str:
    """``json.dumps(results_to_dict(...))``, byte for byte, with each
    community spliced from its stored text (:func:`community_json`)."""
    return render(_envelope(len(results),
                            communities_json(results, dbg),
                            context, spec, elapsed_seconds, cached))


def _envelope(count: int, communities: Any,
              context: Optional[QueryContext],
              spec: Optional[QuerySpec],
              elapsed_seconds: Optional[float],
              cached: Optional[bool]) -> Dict[str, Any]:
    """The envelope's fields, in wire order, around ``communities``
    (dicts for :func:`results_to_dict`, a :class:`Raw` array for
    :func:`results_to_json`)."""
    payload: Dict[str, Any] = {
        "count": count,
        "communities": communities,
    }
    if cached is not None:
        payload["cached"] = bool(cached)
    if spec is not None:
        payload["query"] = spec_to_dict(spec)
    if context is not None:
        payload["stats"] = context_to_dict(context)
    if elapsed_seconds is not None:
        payload["elapsed_seconds"] = float(elapsed_seconds)
    return payload


#: The instance-``__dict__`` key under which :func:`community_json`
#: keeps a community's encoded text. It is not a dataclass field, so
#: ``==``, ``hash``, ``repr`` and pickles ignore it.
_TEXT = "_json"


class Raw(str):
    """Text that is already JSON: :func:`render` writes it as is."""


def community_json(community: Community,
                   dbg: Optional[DatabaseGraph] = None) -> str:
    """``json.dumps(community_to_dict(community, dbg))``, encoding each
    community once.

    The label-free text is stored on the instance the first time it is
    asked for; a community is immutable, so the text never goes stale,
    and two threads that both encode it store the same text. Labels
    are per request: with ``dbg`` the ``labels`` map is appended to
    the stored text, the last key of the dict form.
    """
    memo = vars(community)
    text = memo.get(_TEXT)
    if text is None:
        text = memo[_TEXT] = json.dumps(community_to_dict(community))
    if dbg is None:
        return text
    labels = {str(u): dbg.label_of(u) for u in community.nodes}
    return text[:-1] + ', "labels": ' + json.dumps(labels) + "}"


def json_array(texts: Iterable[str]) -> Raw:
    """A JSON array of already-encoded items."""
    return Raw("[" + ", ".join(texts) + "]")


def communities_json(communities: Sequence[Community],
                     dbg: Optional[DatabaseGraph] = None) -> Raw:
    """The ``communities`` array, spliced from stored texts."""
    return json_array(community_json(c, dbg) for c in communities)


def render(payload: Dict[str, Any]) -> str:
    """``json.dumps(payload)``, byte for byte, with every :class:`Raw`
    value written as is rather than encoded again.

    The one writer of the ``/query``, ``/batch`` and
    ``/sessions/{id}/next`` bodies: the small fields go through
    ``json.dumps``, and the communities arrays are spliced in.
    """
    return "{" + ", ".join(
        json.dumps(key) + ": "
        + (value if isinstance(value, Raw) else json.dumps(value))
        for key, value in payload.items()) + "}"


def dumps(payload: Dict[str, Any], indent: Optional[int] = None) -> str:
    """Canonical JSON rendering (sorted keys, stable across runs)."""
    return json.dumps(payload, indent=indent, sort_keys=True)


def communities_from_dicts(payload: Sequence[Dict[str, Any]]
                           ) -> List[Community]:
    """Rebuild :class:`Community` objects from their JSON form.

    The client uses this so service answers expose the same dataclass
    API as in-process answers (``labels`` is presentation-only and is
    dropped).
    """
    return [
        Community(
            core=tuple(entry["core"]),
            cost=float(entry["cost"]),
            centers=tuple(entry["centers"]),
            pnodes=tuple(entry["pnodes"]),
            nodes=tuple(entry["nodes"]),
            edges=tuple((u, v, float(w))
                        for u, v, w in entry.get("edges", [])),
        )
        for entry in payload
    ]
