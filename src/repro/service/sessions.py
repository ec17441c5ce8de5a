"""Interactive PDk sessions: leased streams with TTL and generation
checks.

The paper's Exp-3 headline is that PDk enlarges ``k`` at run time for
free — 50 more answers after the first 200 cost exactly 50 more
``Next()`` calls. Serving that over HTTP needs server-side state: a
:class:`SessionManager` leases one
:class:`~repro.engine.results.CachedStream` per session id — a view
over the query's result entry, whose PDk stream keeps its heap and
can-list intact — so ``POST /sessions/{id}/next`` resumes where the
previous call stopped instead of re-running Algorithm 6 and
re-seeding the heap.

Two things can make a retained stream *wrong* rather than merely old,
and both invalidate the lease:

* **TTL expiry** — leases are dropped ``ttl_seconds`` after last use,
  bounding the memory held for clients that walked away;
* **generation bump** — a stream enumerates the graph as it was at
  creation. After :meth:`QueryEngine.apply_delta` (or any index swap)
  its answers may miss new nodes entirely, so every ``next`` compares
  the lease's recorded engine generation against the current one and
  a mismatch kills the lease. Clients see
  :class:`~repro.service.errors.SessionGone` (HTTP 410) and reopen —
  the fresh session re-projects once and re-warms the cache.

All methods are thread-safe: the manager locks its table, each lease
locks its stream (two ``next`` calls on one session serialize rather
than corrupt the heap). Each page is charged to a context of its
own, merged into the lease's; what a page reports — the stream
position, the cumulative stats and the page's own context — is read
under the same lock and returned as a :class:`SessionPage`, so two
concurrent pages never report or count each other's communities.
"""

from __future__ import annotations

import secrets
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.community import Community
from repro.core.cost import AggregateSpec
from repro.engine.context import QueryContext
from repro.engine.engine import QueryEngine
from repro.exceptions import QueryError
from repro.service.errors import NotFound, Overloaded, SessionGone

#: Seconds of idleness after which a lease expires, by default.
DEFAULT_TTL_SECONDS = 300.0

#: Concurrent leases per manager, by default.
DEFAULT_MAX_SESSIONS = 64


@dataclass
class SessionStats:
    """Lifetime counters for one session manager."""

    created: int = 0
    closed: int = 0
    expired: int = 0
    stale_dropped: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Flat metric view (service ``/metrics`` consumes this)."""
        return {
            "sessions_created": float(self.created),
            "sessions_closed": float(self.closed),
            "sessions_expired": float(self.expired),
            "sessions_stale_dropped": float(self.stale_dropped),
        }


def _copy(context: QueryContext) -> QueryContext:
    """A snapshot of a context's timings and counters."""
    return QueryContext(dict(context.timings), dict(context.counters))


class SessionLease:
    """One leased stream plus the bookkeeping to police it."""

    def __init__(self, session_id: str, stream: Any,
                 context: QueryContext, generation: str,
                 keywords: Tuple[str, ...], rmax: float,
                 ttl_seconds: float, now: float) -> None:
        self.id = session_id
        self.stream = stream
        #: Cumulative instrumentation for the whole session — the
        #: ``project`` stage is charged at creation only, which is how
        #: clients observe that enlargement was free.
        self.context = context
        self.generation = generation
        self.keywords = keywords
        self.rmax = rmax
        self.ttl_seconds = ttl_seconds
        self.expires_at = now + ttl_seconds
        self.lock = threading.Lock()

    def touch(self, now: float) -> None:
        """Push expiry out by one TTL from ``now`` (sliding lease)."""
        self.expires_at = now + self.ttl_seconds

    def expired(self, now: float) -> bool:
        """True once the lease has sat unused past its TTL."""
        return now >= self.expires_at


@dataclass(frozen=True)
class SessionPage:
    """One ``next`` call's view of its lease, read under the lease
    lock: the stream position after the page, the session's cumulative
    stats as of the page, and the page's own context (``spent``)."""

    lease: SessionLease
    emitted: int
    exhausted: bool
    context: QueryContext
    spent: QueryContext


class SessionManager:
    """Leases PDk streams from one engine and polices their validity.

    ``clock`` is injectable (monotonic seconds) so expiry is testable
    without sleeping.
    """

    def __init__(self, engine: QueryEngine,
                 ttl_seconds: float = DEFAULT_TTL_SECONDS,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if ttl_seconds <= 0:
            raise QueryError(
                f"ttl_seconds must be positive, got {ttl_seconds}")
        if max_sessions <= 0:
            raise QueryError(
                f"max_sessions must be positive, got {max_sessions}")
        self.engine = engine
        self.ttl_seconds = ttl_seconds
        self.max_sessions = max_sessions
        self.stats = SessionStats()
        self._clock = clock
        self._lock = threading.Lock()
        self._leases: Dict[str, SessionLease] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def create(self, keywords: Sequence[str], rmax: float,
               aggregate: AggregateSpec = "sum",
               ttl_seconds: Optional[float] = None) -> SessionLease:
        """Open a session: project (or hit the cache), seed the heap.

        The expensive work — Algorithm 6 plus the first ``BestCore``
        seeding — happens here, once; every later ``next`` only pops
        the heap. Raises :class:`Overloaded` at the lease cap, and
        :class:`QueryError` for a ``ttl_seconds`` that is not positive.
        """
        if ttl_seconds is not None and not ttl_seconds > 0:
            raise QueryError(
                f"ttl_seconds must be positive, got {ttl_seconds}")
        self.sweep()
        with self._lock:
            if len(self._leases) >= self.max_sessions:
                raise Overloaded(
                    f"session table full ({self.max_sessions} leases)")
        context = QueryContext()
        generation = self.engine.generation
        stream = self.engine.top_k_stream(
            list(keywords), rmax, aggregate=aggregate, context=context)
        lease = SessionLease(
            session_id=secrets.token_hex(8), stream=stream,
            context=context, generation=generation,
            keywords=tuple(keywords), rmax=float(rmax),
            ttl_seconds=(self.ttl_seconds if ttl_seconds is None
                         else float(ttl_seconds)),
            now=self._clock())
        with self._lock:
            self._leases[lease.id] = lease
            self.stats.created += 1
        return lease

    def next(self, session_id: str, k: int
             ) -> Tuple[List[Community], SessionPage]:
        """Up to ``k`` further answers from a live, current lease,
        with the :class:`SessionPage` they make.

        Raises :class:`NotFound` for an unknown id and
        :class:`SessionGone` for an expired or generation-stale lease
        (the lease is dropped on the spot in both Gone cases).
        """
        if k < 0:
            raise QueryError(f"k must be >= 0, got {k}")
        lease = self._checked_out(session_id)
        with lease.lock:
            # Re-check under the lease lock: a delta applied while we
            # waited must not slip a stale batch through.
            self._police(lease)
            spent = QueryContext()
            communities = lease.stream.take(k, spent)
            lease.touch(self._clock())
            lease.context.merge(spent)
            page = SessionPage(lease, lease.stream.emitted,
                               lease.stream.exhausted,
                               _copy(lease.context), spent)
        return communities, page

    def close(self, session_id: str) -> None:
        """Release a lease explicitly (idempotent for unknown ids)."""
        with self._lock:
            if self._leases.pop(session_id, None) is not None:
                self.stats.closed += 1

    def sweep(self) -> int:
        """Drop every expired lease; returns how many were dropped."""
        now = self._clock()
        with self._lock:
            dead = [sid for sid, lease in self._leases.items()
                    if lease.expired(now)]
            for sid in dead:
                del self._leases[sid]
            self.stats.expired += len(dead)
        return len(dead)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Live leases right now (expired-but-unswept ones included)."""
        with self._lock:
            return len(self._leases)

    def get(self, session_id: str) -> SessionLease:
        """The live lease for an id (validity-checked, not touched)."""
        return self._checked_out(session_id)

    # ------------------------------------------------------------------
    def _checked_out(self, session_id: str) -> SessionLease:
        with self._lock:
            lease = self._leases.get(session_id)
        if lease is None:
            raise NotFound(f"no session {session_id!r}")
        self._police(lease)
        return lease

    def _police(self, lease: SessionLease) -> None:
        """Raise :class:`SessionGone` for an expired or
        generation-stale lease, first dropping it from the table and
        counting the drop under the manager's lock."""
        generation = self.engine.generation
        if lease.expired(self._clock()):
            stat, why = "expired", (f"expired after "
                                    f"{lease.ttl_seconds:g}s idle")
        elif generation != lease.generation:
            stat, why = "stale_dropped", (
                f"is stale: the graph/index changed (generation "
                f"{lease.generation} -> {generation})")
        else:
            return
        with self._lock:
            if self._leases.pop(lease.id, None) is not None:
                setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        raise SessionGone(
            f"session {lease.id} {why}; open a new session")
