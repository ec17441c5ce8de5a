"""Property tests for the mapped snapshot load.

Two properties back the one load path:

1. every array a load hands out is a read-only view — mutation raises
   instead of silently corrupting the shared pages;
2. an engine over the loaded snapshot answers PDall and PDk exactly
   like an engine over the in-memory graph and index the snapshot was
   written from, community for community, on adversarial Hypothesis
   graphs — and the answers serialize to the same JSON, so no numpy
   scalar leaks out of the mapped arrays.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import QueryEngine
from repro.engine.spec import QuerySpec
from repro.service.serialize import results_to_dict
from repro.snapshot import load_snapshot, write_snapshot

from test_snapshot_props import _same_graph, _same_index, artifacts


def _community_key(communities):
    return [(c.core, c.cost, c.centers, c.pnodes, c.nodes, c.edges)
            for c in communities]


@settings(max_examples=25, deadline=None)
@given(case=artifacts())
def test_mmap_load_round_trips_and_views_are_read_only(
        case, tmp_path_factory):
    dbg, index = case
    path = tmp_path_factory.mktemp("mmap") / "s"
    write_snapshot(path, dbg, index)
    loaded = load_snapshot(path)
    _same_graph(loaded.dbg, dbg)
    if index is not None:
        _same_index(index, loaded.index)
    for arr in (loaded.dbg.graph.forward.indptr,
                loaded.dbg.graph.forward.targets,
                loaded.dbg.graph.forward.weights):
        arr = np.asarray(arr)
        assert not arr.flags.writeable
        if arr.size:
            with pytest.raises(ValueError):
                arr[0] = 1


@settings(max_examples=20, deadline=None)
@given(case=artifacts(), data=st.data())
def test_in_memory_and_loaded_engines_answer_identically(
        case, data, tmp_path_factory):
    dbg, index = case
    path = tmp_path_factory.mktemp("loaded") / "s"
    write_snapshot(path, dbg, index)
    in_memory = QueryEngine(dbg, index)
    loaded = QueryEngine.from_snapshot(path)

    vocab = sorted(dbg.vocabulary())
    if not vocab:
        return
    keywords = data.draw(st.lists(st.sampled_from(vocab),
                                  min_size=1, max_size=2,
                                  unique=True))
    rmax = data.draw(st.sampled_from([1.0, 4.0, 9.0]))
    if index is not None:
        # Projection refuses Rmax beyond the index radius R.
        rmax = min(rmax, index.radius)

    spec = QuerySpec(tuple(keywords), rmax, mode="all")
    expected = in_memory.run_all(spec)
    got = loaded.run_all(spec)
    assert _community_key(got) == _community_key(expected)
    # The same answers serialize to the same JSON — no numpy scalar
    # may leak out of the mapped arrays (json.dumps would reject it).
    assert json.dumps(results_to_dict(got, dbg=loaded.dbg)) \
        == json.dumps(results_to_dict(expected, dbg=dbg))

    stream_a = in_memory.top_k_stream(keywords, rmax).take(3)
    stream_b = loaded.top_k_stream(keywords, rmax).take(3)
    assert _community_key(stream_b) == _community_key(stream_a)
