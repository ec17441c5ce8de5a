"""Property tests for spliced response bodies.

The service renders ``/query``, ``/batch`` and ``/sessions/{id}/next``
through one writer that splices each community's stored JSON text
(:mod:`repro.service.serialize`). On random graphs, with ``labels``
on and off, the first (encoding) response and a repeated (spliced)
one must both be ``json.dumps`` of the dict form, byte for byte: the
dict forms are :func:`results_to_dict` for a query envelope and the
session page's fields around :func:`community_to_dict`.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.engine import QueryContext, QueryEngine, QuerySpec
from repro.graph.generators import random_database_graph
from repro.service import CommunityService
from repro.service.serialize import community_to_dict, results_to_dict

KEYWORDS = ["a", "b"]


@st.composite
def cases(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=3, max_value=12))
    p = draw(st.sampled_from([0.15, 0.3]))
    radius = float(draw(st.sampled_from([3, 5, 8])))
    k = draw(st.integers(min_value=1, max_value=6))
    labels = draw(st.booleans())
    dbg = random_database_graph(n, p, KEYWORDS, seed=seed,
                                bidirected=draw(st.booleans()))
    return dbg, radius, k, labels


def _post(service, path, payload):
    status, _, body, _ = service.handle("POST", path,
                                        json.dumps(payload).encode())
    assert status == 200, body
    return body


def _query_dict(reply, communities, dbg, spec):
    """``results_to_dict`` with the reply's per-request fields."""
    stats = reply["stats"]
    return results_to_dict(
        communities, dbg=dbg,
        context=QueryContext(stats["timings"], stats["counters"]),
        spec=spec, elapsed_seconds=reply.get("elapsed_seconds"),
        cached=reply["cached"])


@settings(max_examples=30, deadline=None)
@given(cases())
def test_spliced_bodies_equal_the_dict_form(case):
    dbg, radius, k, labels = case
    if any(not dbg.nodes_with_keyword(kw) for kw in KEYWORDS):
        return
    engine = QueryEngine(dbg)
    engine.build_index(radius=radius)
    reference = QueryEngine(dbg, result_cache_bytes=0)
    reference.build_index(radius=radius)
    label_graph = dbg if labels else None
    spec = QuerySpec(tuple(KEYWORDS), radius, mode="topk", k=k)
    payload = {"keywords": KEYWORDS, "rmax": radius, "k": k,
               "labels": labels}
    with CommunityService(engine, workers=1) as service:
        # /query: the first body encodes, the repeat splices.
        for _ in range(2):
            body = _post(service, "/query", payload)
            reply = json.loads(body)
            assert body == json.dumps(_query_dict(
                reply, reference.top_k(spec), label_graph, spec))

        # /batch: a cached slice and a cold COMM-all entry.
        every = QuerySpec(tuple(KEYWORDS), radius, mode="all")
        smaller = QuerySpec(tuple(KEYWORDS), radius, mode="topk",
                            k=max(1, k - 1))
        for _ in range(2):
            body = _post(service, "/batch", {
                "queries": [{"keywords": KEYWORDS, "rmax": radius,
                             "k": smaller.k},
                            {"keywords": KEYWORDS, "rmax": radius,
                             "mode": "all"}],
                "labels": labels})
            reply = json.loads(body)
            expected = [
                _query_dict(entry, answer, label_graph, query)
                for entry, answer, query in zip(
                    reply["results"],
                    [reference.top_k(smaller), reference.run_all(every)],
                    [smaller, every])]
            assert body == json.dumps({
                "queries": 2, "results": expected,
                "elapsed_seconds": reply["elapsed_seconds"]})

        # Session pages: served from the cached prefix, then past it.
        ranked = reference.top_k(QuerySpec(tuple(KEYWORDS), radius,
                                           mode="topk", k=3 * k))
        for _ in range(2):
            session = json.loads(_post(service, "/sessions", {
                "keywords": KEYWORDS, "rmax": radius}))["session"]
            emitted = 0
            for page in range(3):
                body = _post(service, f"/sessions/{session}/next",
                             {"k": k, "labels": labels})
                reply = json.loads(body)
                communities = ranked[emitted:emitted + k]
                emitted += len(communities)
                assert body == json.dumps({
                    "session": session,
                    "generation": engine.generation,
                    "returned": len(communities),
                    "emitted": emitted,
                    "exhausted": reply["exhausted"],
                    "communities": [community_to_dict(c, label_graph)
                                    for c in communities],
                    "stats": reply["stats"],
                })
