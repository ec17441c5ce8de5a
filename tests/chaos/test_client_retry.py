"""Client retries: backoff policy, Retry-After, error enrichment.

A real server is driven over a real socket (retries only make sense
across the wire). Transient failures are injected at the
``service.request`` failpoint so the Nth attempt deterministically
fails and the N+1st succeeds — no load generation, no racing. The
``client.request`` failpoint fires on every attempt of either client,
router legs included.
"""

import asyncio

import pytest

from repro import faults
from repro.datasets.paper_example import FIG4_QUERY, FIG4_RMAX
from repro.engine import QueryEngine
from repro.service import (
    BadRequest,
    CommunityService,
    Overloaded,
    ServiceClient,
    ServiceUnreachable,
)
from repro.shard.aio import AsyncShardClient
from repro.snapshot import SnapshotStore


@pytest.fixture()
def live_service(fig4_store):
    engine = QueryEngine.from_snapshot(
        SnapshotStore(fig4_store).resolve())
    with CommunityService(engine, port=0).start() as service:
        yield service


class TestRetryLoop:
    def test_retry_succeeds_after_transient_429(self, live_service):
        faults.activate("service.request", "once:raise(Overloaded)")
        client = ServiceClient(live_service.url, retries=2,
                               backoff_base=0.01, retry_seed=7)
        result = client.query(list(FIG4_QUERY), FIG4_RMAX, k=1)
        assert result["count"] == 1
        assert client.retries_performed == 1

    def test_retry_succeeds_after_transient_503(self, live_service):
        faults.activate("service.request",
                        "once:raise(DeadlineExceeded)")
        client = ServiceClient(live_service.url, retries=1,
                               backoff_base=0.01, retry_seed=7)
        assert client.health()["status"] == "ok"
        assert client.retries_performed == 1

    def test_retries_exhausted_raises_the_last_error(self,
                                                     live_service):
        faults.activate("service.request", "always:raise(Overloaded)")
        client = ServiceClient(live_service.url, retries=2,
                               backoff_base=0.01, retry_seed=7)
        with pytest.raises(Overloaded):
            client.health()
        assert client.retries_performed == 2

    def test_default_client_does_not_retry(self, live_service):
        faults.activate("service.request", "once:raise(Overloaded)")
        client = ServiceClient(live_service.url)
        with pytest.raises(Overloaded):
            client.health()
        assert client.retries_performed == 0
        client.health()                     # fault spent; clean now

    def test_non_retryable_errors_fail_immediately(self,
                                                   live_service):
        client = ServiceClient(live_service.url, retries=5,
                               backoff_base=0.01, retry_seed=7)
        with pytest.raises(BadRequest):
            client.query(["nosuchkeyword"], FIG4_RMAX, k=1)
        assert client.retries_performed == 0

    def test_connection_errors_are_retryable(self):
        # Nothing listens on this port; every attempt fails at the
        # socket layer and the client must retry, then surface
        # ServiceUnreachable (status 503, no Retry-After).
        client = ServiceClient("http://127.0.0.1:9",
                               timeout=0.5, retries=2,
                               backoff_base=0.01, retry_seed=7)
        with pytest.raises(ServiceUnreachable) as excinfo:
            client.health()
        assert client.retries_performed == 2
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after is None

    def test_connection_errors_never_replay_non_idempotent_posts(
            self):
        """A torn connection may hide a POST the server already
        executed — replaying session creation would leak
        max_sessions slots, so non-idempotent POSTs must fail fast
        even with retries enabled."""
        client = ServiceClient("http://127.0.0.1:9",
                               timeout=0.5, retries=3,
                               backoff_base=0.01, retry_seed=7)
        for path in ("/sessions", "/admin/reload"):
            with pytest.raises(ServiceUnreachable):
                client.request("POST", path, {})
        assert client.retries_performed == 0

    def test_stateless_post_reads_opt_into_connection_retries(self):
        """``/query`` and ``/batch`` are safe to re-send; the
        idempotent flag they pass re-enables connection-error
        retries for them."""
        client = ServiceClient("http://127.0.0.1:9",
                               timeout=0.5, retries=2,
                               backoff_base=0.01, retry_seed=7)
        with pytest.raises(ServiceUnreachable):
            client.query(["kate"], 6.0, k=1)
        assert client.retries_performed == 2

    def test_http_503_responses_retry_even_on_posts(self,
                                                    live_service):
        """A definitive 429/503 *response* proves the server rejected
        the request, so even a non-idempotent POST retries on it."""
        faults.activate("service.request", "once:raise(Overloaded)")
        client = ServiceClient(live_service.url, retries=2,
                               backoff_base=0.01, retry_seed=7)
        opened = client.request(
            "POST", "/sessions",
            {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX})
        assert "session" in opened
        assert client.retries_performed == 1
        client.request("DELETE", f"/sessions/{opened['session']}")


class TestErrorEnrichment:
    def test_raised_errors_carry_status_and_retry_after(
            self, live_service):
        """Satellite: 429/503 responses arrive with the server's
        Retry-After hint attached to the exception object."""
        faults.activate("service.request", "once:raise(Overloaded)")
        client = ServiceClient(live_service.url)
        with pytest.raises(Overloaded) as excinfo:
            client.health()
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 1.0

    def test_4xx_errors_carry_status_but_no_retry_after(
            self, live_service):
        client = ServiceClient(live_service.url)
        with pytest.raises(BadRequest) as excinfo:
            client.query(["nosuchkeyword"], FIG4_RMAX, k=1)
        assert excinfo.value.status == 400
        assert excinfo.value.retry_after is None


class TestBackoffPolicy:
    def test_backoff_is_deterministic_given_a_seed(self):
        a = ServiceClient("http://x", retry_seed=42)
        b = ServiceClient("http://x", retry_seed=42)
        assert [a._backoff(i, None) for i in range(6)] \
            == [b._backoff(i, None) for i in range(6)]

    def test_backoff_grows_and_caps(self):
        client = ServiceClient("http://x", backoff_base=0.1,
                               backoff_cap=0.4, retry_seed=1)
        for attempt in range(8):
            delay = client._backoff(attempt, None)
            assert 0.0 <= delay <= min(0.4, 0.1 * 2 ** attempt)

    def test_retry_after_overrides_backoff(self):
        client = ServiceClient("http://x", backoff_base=100.0,
                               retry_seed=1)
        assert client._backoff(0, 0.25) == 0.25
        assert client._backoff(0, -3.0) == 0.0


class TestRouterLegs:
    def test_client_failpoint_fires_on_a_router_leg(self, live_service):
        faults.activate("client.request", "once:raise(Overloaded)")

        async def leg():
            client = AsyncShardClient(live_service.url, retries=1,
                                      retry_seed=7)
            try:
                reply = await client.request(
                    "POST", "/query",
                    {"keywords": list(FIG4_QUERY), "rmax": FIG4_RMAX,
                     "k": 1}, idempotent=True)
                return reply, client.retries_performed
            finally:
                await client.aclose()

        reply, retries = asyncio.run(leg())
        assert reply["count"] == 1
        assert retries == 1
