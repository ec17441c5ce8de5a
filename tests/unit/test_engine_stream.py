"""Unit tests for the PDk stream ``top_k_stream`` hands out: a
:class:`repro.engine.results.CachedStream` view over a result entry.

The stream is what session leases hand out, so its edge behaviour
(k=0, exhaustion mid-take, takes after exhaustion) is the service's
edge behaviour. Exercised directly here, not through HTTP.
"""

import pytest

from repro.core.community import community_sort_key
from repro.core.search import CommunitySearch
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.engine import QueryContext
from repro.exceptions import QueryError

#: fig4 has exactly this many communities for the canonical query.
FIG4_TOTAL = 5


@pytest.fixture()
def search(fig4):
    s = CommunitySearch(fig4)
    s.build_index(radius=FIG4_RMAX)
    return s


@pytest.fixture()
def stream(search):
    return search.top_k_stream(list(FIG4_QUERY), FIG4_RMAX)


class TestTakeEdgeCases:
    def test_take_zero_returns_empty_and_consumes_nothing(self, stream):
        assert stream.take(0) == []
        assert stream.emitted == 0
        assert not stream.exhausted
        # The stream is untouched: the full ranking still comes out.
        assert len(stream.take(FIG4_TOTAL)) == FIG4_TOTAL

    def test_take_negative_rejected(self, stream):
        with pytest.raises(QueryError):
            stream.take(-1)
        assert stream.emitted == 0

    def test_exhaustion_mid_take_returns_short_batch(self, stream):
        first = stream.take(3)
        assert len(first) == 3
        # Ask for more than remain: get exactly the remainder.
        rest = stream.take(100)
        assert len(rest) == FIG4_TOTAL - 3
        assert stream.exhausted
        assert stream.emitted == FIG4_TOTAL

    def test_repeated_take_after_exhaustion_is_empty(self, stream):
        stream.take(FIG4_TOTAL)
        assert stream.exhausted
        for _ in range(3):
            assert stream.take(10) == []
        assert stream.emitted == FIG4_TOTAL

    def test_next_community_none_after_exhaustion(self, stream):
        stream.take(FIG4_TOTAL)
        assert stream.next_community() is None
        assert stream.next_community() is None

    def test_more_continues_where_take_stopped(self, stream):
        first = stream.take(2)
        rest = stream.more(FIG4_TOTAL)
        assert len(first) == 2
        assert len(rest) == FIG4_TOTAL - 2
        assert stream.exhausted
        # No answer is repeated across the batches.
        cores = [c.core for c in first + rest]
        assert len(set(cores)) == len(cores)


class TestRankingAndTranslation:
    def test_batches_concatenate_to_full_ranking(self, search, stream):
        batches = stream.take(2) + stream.more(2) + stream.more(10)
        expected = search.top_k(list(FIG4_QUERY), FIG4_TOTAL,
                                FIG4_RMAX)
        assert [(c.core, c.cost) for c in batches] \
            == [(c.core, c.cost) for c in expected]
        assert batches == sorted(batches, key=community_sort_key)

    def test_iteration_stops_at_exhaustion(self, stream):
        assert len(list(stream)) == FIG4_TOTAL
        assert stream.exhausted

    def test_translated_ids_are_gd_ids(self, fig4, stream):
        for community in stream.take(FIG4_TOTAL):
            assert all(0 <= u < fig4.n for u in community.nodes)
            # Edges are re-induced against G_D between community nodes.
            nodes = set(community.nodes)
            assert all(u in nodes and v in nodes
                       for u, v, _ in community.edges)

    def test_context_stops_charging_after_exhaustion(self, search):
        ctx = QueryContext()
        stream = search.top_k_stream(list(FIG4_QUERY), FIG4_RMAX,
                                     context=ctx)
        stream.take(FIG4_TOTAL)
        assert ctx.counter("communities") == FIG4_TOTAL
        stream.take(5)                    # all empty pops
        assert ctx.counter("communities") == FIG4_TOTAL
