"""Replica-set failover semantics, no sockets.

Fake clients stand in for :class:`AsyncShardClient`, so every branch
of the sticky-cursor contract is driven deterministically: retryable
failures (429/503) move to the next sibling and promote it on
success, deterministic 4xx propagate immediately, and an exhausted
set re-raises the last failure.
"""

import asyncio

import pytest

from repro.exceptions import ServiceError
from repro.service.errors import (
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    ServiceUnreachable,
)
from repro.shard import parse_shard_urls
from repro.shard.aio import AsyncReplicaSet


class FakeClient:
    """Scripted replica: answers or raises per configured plan."""

    def __init__(self, url):
        self.url = url
        self.calls = 0
        self.plan = []           # list of results / exceptions
        self.closed = False

    def script(self, *outcomes):
        self.plan = list(outcomes)
        return self

    async def step(self):
        self.calls += 1
        outcome = self.plan.pop(0) if self.plan else {"ok": self.url}
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    async def aclose(self):
        self.closed = True


def _set(urls, **kwargs):
    return AsyncReplicaSet(0, urls, client_factory=FakeClient,
                           **kwargs)


def _call(replicas):
    """One ``call`` of the set, run to completion on a fresh loop."""
    return asyncio.run(replicas.call(lambda c: c.step()))


class TestParseShardUrls:
    def test_single_urls(self):
        assert parse_shard_urls(["http://a:1", "http://b:2/"]) \
            == [["http://a:1"], ["http://b:2"]]

    def test_comma_separated_replicas(self):
        assert parse_shard_urls(["http://a:1, http://b:2"]) \
            == [["http://a:1", "http://b:2"]]

    def test_empty_spec_rejected(self):
        with pytest.raises(ServiceError, match="shard URL #1"):
            parse_shard_urls(["http://a:1", " ,, "])


class TestReplicaSetFailover:
    def test_single_replica_passthrough(self):
        replicas = _set(["http://a:1"])
        assert _call(replicas) == {"ok": "http://a:1"}
        assert replicas.failovers == 0

    def test_retryable_failure_fails_over_and_promotes(self):
        replicas = _set(["http://a:1", "http://b:2"])
        replicas.clients[0].script(ServiceUnreachable("down"))
        assert _call(replicas) == {"ok": "http://b:2"}
        assert replicas.failovers == 1
        assert replicas.active_url == "http://b:2"
        # Sticky: the next call starts at the promoted sibling.
        assert _call(replicas) == {"ok": "http://b:2"}
        assert replicas.failovers == 1

    @pytest.mark.parametrize("error", [Overloaded("shed"),
                                       DeadlineExceeded("slow")])
    def test_shedding_statuses_fail_over(self, error):
        replicas = _set(["http://a:1", "http://b:2"])
        replicas.clients[0].script(error)
        assert _call(replicas)["ok"] == "http://b:2"
        assert replicas.failovers == 1

    def test_deterministic_4xx_propagates_immediately(self):
        replicas = _set(["http://a:1", "http://b:2"])
        replicas.clients[0].script(BadRequest("no such keyword"))
        with pytest.raises(BadRequest):
            _call(replicas)
        assert replicas.failovers == 0
        assert replicas.clients[1].calls == 0

    def test_exhausted_set_reraises_last_failure(self):
        replicas = _set(["http://a:1", "http://b:2"])
        replicas.clients[0].script(ServiceUnreachable("a down"))
        replicas.clients[1].script(ServiceUnreachable("b down"))
        with pytest.raises(ServiceUnreachable, match="b down"):
            _call(replicas)
        # The dead-end traversal counts one failover (a -> b); the
        # final failure on the last sibling is not a failover.
        assert replicas.failovers == 1
        assert replicas.clients[0].calls == 1
        assert replicas.clients[1].calls == 1

    def test_on_failover_callback_reports_urls(self):
        seen = []
        replicas = AsyncReplicaSet(
            3, ["http://a:1", "http://b:2"],
            client_factory=FakeClient,
            on_failover=lambda s, frm, to: seen.append((s, frm, to)))
        replicas.clients[0].script(ServiceUnreachable("down"))
        _call(replicas)
        assert seen == [(3, "http://a:1", "http://b:2")]

    def test_close_releases_every_client(self):
        replicas = _set(["http://a:1", "http://b:2"])
        asyncio.run(replicas.aclose())
        assert all(c.closed for c in replicas.clients)

    def test_empty_url_list_rejected(self):
        with pytest.raises(ServiceError, match="no replica URLs"):
            AsyncReplicaSet(0, [], client_factory=FakeClient)


class TestAsyncReplicaSet:
    """Calls made from one running loop, as the router makes them."""

    def _run(self, coro):
        return asyncio.run(coro)

    def _aset(self, urls, **kwargs):
        return AsyncReplicaSet(0, urls, client_factory=FakeClient,
                               **kwargs)

    @staticmethod
    async def _step(client):
        return await client.step()

    def test_failover_promotes_sibling(self):
        replicas = self._aset(["http://a:1", "http://b:2"])
        replicas.clients[0].script(ServiceUnreachable("down"))

        async def two_calls():
            return (await replicas.call(self._step),
                    await replicas.call(self._step))

        first, second = self._run(two_calls())
        assert first == second == {"ok": "http://b:2"}
        assert replicas.failovers == 1
        assert replicas.active_url == "http://b:2"
        assert replicas.clients[0].calls == 1

    def test_deterministic_4xx_propagates(self):
        replicas = self._aset(["http://a:1", "http://b:2"])
        replicas.clients[0].script(BadRequest("bad"))
        with pytest.raises(BadRequest):
            self._run(replicas.call(self._step))
        assert replicas.clients[1].calls == 0

    def test_exhausted_set_reraises(self):
        replicas = self._aset(["http://a:1", "http://b:2"])
        replicas.clients[0].script(ServiceUnreachable("a down"))
        replicas.clients[1].script(ServiceUnreachable("b down"))
        with pytest.raises(ServiceUnreachable, match="b down"):
            self._run(replicas.call(self._step))

    def test_aclose_releases_every_client(self):
        replicas = self._aset(["http://a:1"])
        self._run(replicas.aclose())
        assert all(c.closed for c in replicas.clients)
