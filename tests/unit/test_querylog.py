"""Unit tests for the service's hot-spec ring buffer
(:mod:`repro.service.querylog`) and the offline miner
(:mod:`repro.analysis.hot_keys`)."""

import pytest

from repro.analysis.hot_keys import hot_keys, warm_payloads
from repro.engine import QuerySpec
from repro.engine.registry import REGISTRY
from repro.service.querylog import QueryLog
from repro.service.server import spec_of


def _spec(keywords=("a", "b"), rmax=8.0, k=3, **kwargs):
    return QuerySpec(tuple(keywords), rmax, mode="topk", k=k,
                     **kwargs)


class TestQueryLog:
    def test_counts_aggregate_under_canonical_keys(self):
        log = QueryLog()
        log.record(_spec(("XML", "jim")))
        log.record(_spec(("Jim", "xml")))      # collides: same key
        log.record(_spec(("other",)))
        top = log.top()
        assert top[0]["count"] == 2
        assert top[0]["key"] == _spec(("xml", "jim")).cache_key()
        assert top[1]["count"] == 1
        assert len(log) == 3
        assert log.recorded == 3

    def test_rmax_spellings_share_a_row(self):
        log = QueryLog()
        log.record(_spec(rmax=0.5))
        log.record(_spec(rmax=0.50))
        assert len(log.top()) == 1
        assert log.top()[0]["count"] == 2

    def test_ring_ages_out_old_traffic(self):
        log = QueryLog(capacity=2)
        log.record(_spec(("a",)))
        log.record(_spec(("b",)))
        log.record(_spec(("c",)))              # evicts the 'a' record
        keys = {row["key"] for row in log.top()}
        assert _spec(("a",)).cache_key() not in keys
        assert len(log) == 2
        assert log.recorded == 3

    def test_top_n_limits_and_orders(self):
        log = QueryLog()
        for _ in range(3):
            log.record(_spec(("hot",)))
        log.record(_spec(("cold",)))
        rows = log.top(1)
        assert len(rows) == 1
        assert rows[0]["key"] == _spec(("hot",)).cache_key()

    def test_top_specs_round_trip(self):
        log = QueryLog()
        spec = _spec(("a", "b"), rmax=4.0, k=7, aggregate="max")
        log.record(spec)
        (rebuilt,) = log.top_specs(1)
        assert rebuilt.cache_key() == spec.cache_key()

    def test_replayable_payload_shape(self):
        log = QueryLog()
        log.record(_spec(("a",), rmax=4.0, k=2))
        query = log.top()[0]["query"]
        assert query == {"keywords": ["a"], "rmax": 4.0,
                         "mode": "topk", "k": 2, "algorithm": "pd",
                         "aggregate": "sum"}

    def test_every_row_replays_through_the_request_parser(self):
        """A COMM-all row carries no ``k`` (the parser refuses a null
        one), and no row carries the client's time budget."""
        log = QueryLog()
        every = QuerySpec(("a", "b"), 4.0, algorithm="bu",
                          budget_seconds=1e-9)
        log.record(every)
        log.record(_spec(("c",)))
        for row in log.top():
            spec = spec_of(row["query"], REGISTRY)
            assert spec.cache_key() == row["key"]
            assert spec.budget_seconds is None
        query = log.top(1)[0]["query"]
        assert query == {"keywords": ["a", "b"], "rmax": 4.0,
                         "mode": "all", "algorithm": "bu",
                         "aggregate": "sum"}
        assert log.top_specs(1)[0].cache_key() == every.cache_key()

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=0)

    def test_as_dict_shape(self):
        log = QueryLog(capacity=8)
        log.record(_spec())
        assert log.as_dict() == {"capacity": 8, "size": 1,
                                 "distinct": 1, "recorded": 1}


class TestHotKeysMiner:
    def _rows(self):
        return [
            {"key": "a", "count": 2, "query": {"keywords": ["a"]}},
            {"key": "b", "count": 5, "query": {"keywords": ["b"]}},
            {"key": "a", "count": 1, "query": {"keywords": ["a"]}},
        ]

    def test_merges_and_sorts(self):
        rows = hot_keys(self._rows())
        assert [(r["key"], r["count"]) for r in rows] \
            == [("b", 5), ("a", 3)]

    def test_accepts_querylog_response_shape(self):
        rows = hot_keys({"querylog": {"size": 3},
                         "top": self._rows()}, top=1)
        assert [r["key"] for r in rows] == ["b"]

    def test_min_count_filters(self):
        rows = hot_keys(self._rows(), min_count=4)
        assert [r["key"] for r in rows] == ["b"]

    def test_warm_payloads_are_replayable_bodies(self):
        assert warm_payloads(self._rows(), top=1) \
            == [{"keywords": ["b"]}]

    def test_malformed_rows_skipped(self):
        rows = hot_keys([{"nope": 1}, "junk",
                         {"key": "a", "count": 1,
                          "query": {"keywords": ["a"]}}])
        assert len(rows) == 1
