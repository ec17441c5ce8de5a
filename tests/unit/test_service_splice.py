"""Encode-once responses (:func:`repro.service.serialize.render`).

The service keeps each community's encoded JSON on the instance the
result cache hands out again, and splices it into the ``/query``,
``/batch`` and ``/sessions/{id}/next`` envelopes:

* a repeated cached ``/query`` encodes no community, on an exact
  repeat and on a smaller ``k`` alike;
* a larger ``k`` that a pool worker answers encodes only the new
  tail: the parent answers with its cached instances for the prefix
  it already held;
* the stored text is invisible to the rest of the program: equality,
  hashing, ``repr``, the dataclass fields and pickles are unchanged;
* after a generation swap (a delta or a reload) the next body is
  rendered from the new state's communities, never from a text stored
  on the old state's.

Byte identity with ``json.dumps`` of the dict forms is the property
suite's job (``tests/property/test_serialize_props.py``).
"""

import dataclasses
import json
import pickle
import sys
import threading

import pytest

from repro.datasets.paper_example import (
    FIG4_QUERY,
    FIG4_RMAX,
    figure4_graph,
)
from repro.engine import QueryEngine, QuerySpec
from repro.parallel import ParallelQueryEngine
from repro.service import CommunityService
from repro.service import serialize
from repro.service.serialize import (
    community_json,
    community_to_dict,
    results_to_dict,
    results_to_json,
)
from repro.snapshot import SnapshotStore
from repro.text.inverted_index import CommunityIndex


@pytest.fixture()
def engine(fig4):
    e = QueryEngine(fig4)
    e.build_index(radius=FIG4_RMAX)
    return e


@pytest.fixture()
def service(engine):
    with CommunityService(engine, workers=1) as svc:
        yield svc


@pytest.fixture()
def encodes(monkeypatch):
    """Counts the per-community encodings (calls of the dict form)."""
    calls = []
    real = serialize.community_to_dict

    def counting(community, dbg=None):
        calls.append(community)
        return real(community, dbg)

    monkeypatch.setattr(serialize, "community_to_dict", counting)
    return calls


def query(service, k, **extra):
    status, _, body, _ = service.handle("POST", "/query", json.dumps(
        {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX, "k": k,
         **extra}).encode())
    assert status == 200, body
    return json.loads(body)


class TestEncodeOnce:
    def test_repeat_and_smaller_k_encode_nothing(self, service,
                                                 encodes):
        first = query(service, 3)
        assert first["cached"] is False
        assert len(encodes) == 3
        for k in (3, 2, 1):
            reply = query(service, k)
            assert reply["cached"] is True
            assert reply["communities"] == first["communities"][:k]
        assert len(encodes) == 3

    def test_labels_reuse_the_stored_text(self, service, encodes,
                                          fig4):
        plain = query(service, 2)
        labelled = query(service, 2, labels=True)
        assert len(encodes) == 2
        for bare, full in zip(plain["communities"],
                              labelled["communities"]):
            labels = full.pop("labels")
            assert full == bare
            assert labels == {str(u): fig4.label_of(u)
                              for u in bare["nodes"]}

    def test_batch_and_session_pages_share_the_texts(self, service,
                                                     encodes):
        query(service, 3)
        status, _, body, _ = service.handle(
            "POST", "/batch", json.dumps({"queries": [
                {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
                 "k": k} for k in (1, 3)]}).encode())
        assert status == 200
        assert [r["count"] for r in json.loads(body)["results"]] == [1, 3]
        status, _, body, _ = service.handle(
            "POST", "/sessions", json.dumps(
                {"keywords": list(FIG4_QUERY),
                 "rmax": FIG4_RMAX}).encode())
        session = json.loads(body)["session"]
        status, _, body, _ = service.handle(
            "POST", f"/sessions/{session}/next", b'{"k": 3}')
        assert json.loads(body)["returned"] == 3
        assert len(encodes) == 3

    def test_worker_extension_encodes_only_the_tail(self, tmp_path,
                                                    encodes, fig4):
        SnapshotStore(tmp_path).publish(
            fig4, CommunityIndex.build(fig4, FIG4_RMAX))
        with ParallelQueryEngine(tmp_path, workers=2) as engine, \
                CommunityService(engine, workers=1) as service:
            counts = []
            for k in (2, 4, 4):
                before = len(encodes)
                reply = query(service, k)
                assert reply["count"] == k
                counts.append(len(encodes) - before)
        assert counts == [2, 2, 0]


class TestInvisibleText:
    def test_equality_hash_repr_fields_and_pickle_unchanged(self,
                                                            engine):
        spec = QuerySpec.comm_k(list(FIG4_QUERY), 5, FIG4_RMAX)
        answers = engine.top_k(spec)
        twins = QueryEngine(engine.dbg, engine.index).top_k(spec)
        before = [(hash(c), repr(c), dataclasses.fields(c),
                   len(pickle.dumps(c)), pickle.dumps(c))
                  for c in answers]
        texts = [community_json(c) for c in answers]
        assert texts == [json.dumps(community_to_dict(c))
                         for c in answers]
        after = [(hash(c), repr(c), dataclasses.fields(c),
                  len(pickle.dumps(c)), pickle.dumps(c))
                 for c in answers]
        assert after == before
        assert answers == twins
        # The text stays in this process: an unpickled copy is
        # encoded afresh.
        copy = pickle.loads(pickle.dumps(answers[0]))
        assert copy == answers[0]
        assert serialize._TEXT not in vars(copy)
        assert serialize._TEXT in vars(answers[0])


class TestConcurrentEncoding:
    def test_threads_rendering_shared_communities_agree(self, engine):
        """Admission threads render the same cached objects at once:
        whoever stores a text first, every body is the dict form's."""
        spec = QuerySpec.comm_all(list(FIG4_QUERY), FIG4_RMAX)
        dbg = engine.dbg
        expected = json.dumps(results_to_dict(engine.run_all(spec), dbg))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                # Fresh objects each round: no text stored yet.
                answers = QueryEngine(dbg, engine.index,
                                      result_cache_bytes=0).run_all(spec)
                bodies = []

                def render():
                    for labels in (None, dbg, None):
                        bodies.append(results_to_json(answers, labels))

                threads = [threading.Thread(target=render)
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                plain = json.dumps(results_to_dict(answers))
                assert sorted(bodies) == sorted([plain, expected,
                                                 plain] * 8)
        finally:
            sys.setswitchinterval(switch)


class TestGenerationSwap:
    def test_delta_renders_the_new_state(self, service, engine,
                                         encodes):
        old = query(service, 3)
        assert len(encodes) == 3
        # A node carrying every keyword is a cost-0 community of its
        # own: it ranks first, so the answer changes.
        service.handle("POST", "/admin/delta", json.dumps({
            "nodes": [{"keywords": list(FIG4_QUERY),
                       "label": "all"}]}).encode())
        new = query(service, 3)
        assert new["cached"] is False
        assert new["communities"] != old["communities"]
        assert new["communities"][0]["cost"] == 0.0
        fresh = QueryEngine(engine.dbg, result_cache_bytes=0)
        fresh.build_index(radius=FIG4_RMAX)
        spec = QuerySpec.comm_k(list(FIG4_QUERY), 3, FIG4_RMAX)
        assert new["communities"] \
            == [community_to_dict(c) for c in fresh.top_k(spec)]
        # Every community of the new answer was encoded from the new
        # state's objects, none taken from the old state's texts.
        assert len(encodes) == 6
        assert not any(c is o for c in encodes[3:] for o in encodes[:3])

    def test_reload_renders_the_new_state(self, tmp_path, encodes):
        store = SnapshotStore(tmp_path / "store")
        dbg = figure4_graph()
        first = store.publish(dbg, CommunityIndex.build(dbg, FIG4_RMAX))
        engine = QueryEngine.from_snapshot(first.path)
        with CommunityService(engine, workers=1,
                              snapshot_source=tmp_path / "store",
                              warm_top=0) as service:
            old = query(service, 3)
            second = store.publish(dbg, CommunityIndex.build(dbg, 10.0))
            status, _, body, _ = service.handle("POST", "/admin/reload",
                                                b"")
            assert status == 200 and json.loads(body)["reloaded"], body
            assert engine.snapshot_id == second.id
            new = query(service, 3)
            assert new["cached"] is False
            # Same graph, same answer, but rendered from the new
            # state's objects: each was encoded again.
            assert new["communities"] == old["communities"]
            assert len(encodes) == 6
            assert not any(c is o for c in encodes[3:]
                           for o in encodes[:3])
