"""Interactive PDk sessions: leased streams with TTL and generation
checks.

The paper's Exp-3 headline is that PDk enlarges ``k`` at run time for
free — 50 more answers after the first 200 cost exactly 50 more
``Next()`` calls. Serving that over HTTP needs server-side state: a
:class:`SessionManager` leases one
:class:`~repro.engine.stream.ProjectedTopKStream` (heap + can-list
intact) per session id, so ``POST /sessions/{id}/next`` resumes where
the previous call stopped instead of re-running Algorithm 6 and
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
than corrupt the heap). What a page reports about its lease — the
stream position, the cumulative stats and what this page added to
them — is read under the same lock and returned as a
:class:`SessionPage`, so two concurrent pages never report or count
each other's communities.
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


def _gained(before: QueryContext, after: QueryContext) -> QueryContext:
    """What one context accumulated between two snapshots of it.

    Session contexts are cumulative (that is how clients verify
    enlargement is free), so the service folds per-page *deltas* into
    the global metrics to avoid double counting.
    """
    delta = QueryContext()
    for name, seconds in after.timings.items():
        gained = seconds - before.seconds(name)
        if gained > 0:
            delta.add_time(name, gained)
    for name, value in after.counters.items():
        gained = value - before.counter(name)
        if gained > 0:
            delta.count(name, gained)
    return delta


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
    stats as of the page, and what the page itself added to them."""

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
            # Re-check staleness under the lease lock: a delta applied
            # while we waited must not slip a stale batch through.
            if self.engine.generation != lease.generation:
                self._drop(lease.id)
                self.stats.stale_dropped += 1
                raise SessionGone(
                    f"session {session_id} is stale: the graph/index "
                    f"changed (generation {lease.generation} -> "
                    f"{self.engine.generation}); open a new session")
            before = _copy(lease.context)
            communities = lease.stream.take(k)
            lease.touch(self._clock())
            after = _copy(lease.context)
            page = SessionPage(lease, lease.stream.emitted,
                               lease.stream.exhausted, after,
                               _gained(before, after))
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
        now = self._clock()
        with self._lock:
            lease = self._leases.get(session_id)
        if lease is None:
            raise NotFound(f"no session {session_id!r}")
        if lease.expired(now):
            self._drop(session_id)
            self.stats.expired += 1
            raise SessionGone(
                f"session {session_id} expired after "
                f"{lease.ttl_seconds:g}s idle; open a new session")
        if self.engine.generation != lease.generation:
            self._drop(session_id)
            self.stats.stale_dropped += 1
            raise SessionGone(
                f"session {session_id} is stale: the graph/index "
                f"changed (generation {lease.generation} -> "
                f"{self.engine.generation}); open a new session")
        return lease

    def _drop(self, session_id: str) -> None:
        with self._lock:
            self._leases.pop(session_id, None)
