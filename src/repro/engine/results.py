"""Generation-keyed result cache with ranked-prefix reuse.

The projection cache (:mod:`repro.engine.cache`) memoizes Algorithm 6,
but every query still re-ran the enumeration itself. Snapshots are
immutable between reloads, so for a given generation the answer to a
normalized spec is a constant — :class:`ResultCache` stores it:

* an **exact repeat** is a pure lookup (no enumeration at all);
* a **smaller k** slices the cached prefix;
* a **larger k** (or a session enlargement) resumes the retained
  :class:`~repro.core.comm_k.TopKStream` from the cached frontier and
  computes only the tail — the cache keeps the live stream next to the
  materialized prefix until it is exhausted.

Every interactive PDk stream is a :class:`CachedStream` view over an
entry — with the cache disabled, over an entry of its own that is
never installed — and :meth:`ResultCache._extend_locked` is the one
pump that advances an entry's stream.

Keys are ``(generation, canonical spec key)``; the canonical key is
:func:`result_key` — keywords (already sorted + casefolded by
:class:`~repro.engine.spec.QuerySpec`), mode, rmax (repr-stable
float), algorithm and aggregate, but **not** ``k``: all k values of
one ranked query share a single entry, which is what makes prefix
reuse possible. Invalidation is by generation only — the engine's
string generation tokens (snapshot content hashes) make a swap a
free, exact invalidation with no TTL guessing; a stale entry is
dropped on sight, exactly like the projection cache.

Memory is bounded in **bytes**, not entries: every cached community
is charged an estimate of the memory it holds (:func:`community_nbytes`:
its Python objects plus the JSON text the service keeps on it) and
eviction is LRU until the total fits ``max_bytes``
(``serve --result-cache-mb``). Entries evicted while a session still
holds them keep working — eviction only forgets them for future
lookups.

The ``results.cache.lookup`` failpoint (:mod:`repro.faults`) fires
inside :meth:`ResultCache.lookup`; the fetch paths catch everything
and degrade to a recomputed answer, so a poisoned cache can cost
latency but never correctness.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.core.community import Community
from repro.engine.context import QueryContext, ensure_context
from repro.exceptions import QueryError

#: Default result-cache budget per engine: 64 MiB of estimated
#: community memory (the serve CLI exposes ``--result-cache-mb``).
DEFAULT_RESULT_CACHE_BYTES = 64 * 1024 * 1024

#: Fixed per-entry overhead charged on top of the communities
#: (key string, bookkeeping, OrderedDict slot).
ENTRY_OVERHEAD_BYTES = 512

#: The charge of one community: a fixed part, and parts per id slot
#: (``core``, ``centers``, ``pnodes``, ``nodes``), per node and per
#: edge. Together they cover the instance, its tuples, ints and floats,
#: and its JSON text. Fitted to ``sys.getsizeof`` walks plus text
#: lengths of fig4, random-graph, tiny DBLP/IMDB and bench DBLP
#: answers (a pool worker's answer is installed with its ids shared,
#: as in-process): within ±22% of each.
_COMMUNITY_BYTES = 440
_ID_BYTES = 32
_NODE_BYTES = 40
_EDGE_BYTES = 120


def community_nbytes(community: Community) -> int:
    """Estimated memory one cached community holds, in bytes: its
    Python objects plus its encoded JSON text.

    A formula over the tuple lengths, so charging an install walks no
    objects and encodes nothing (the text is charged up front; the
    service stores it on the first response that carries the
    community, see :func:`repro.service.serialize.community_json`).
    """
    ids = (len(community.core) + len(community.centers)
           + len(community.pnodes) + len(community.nodes))
    return (_COMMUNITY_BYTES + _ID_BYTES * ids
            + _NODE_BYTES * len(community.nodes)
            + _EDGE_BYTES * len(community.edges))


def result_key(keywords: Sequence[str], rmax: float, algorithm: str,
               aggregate: str, mode: str) -> str:
    """Canonical **k-independent** identity of one ranked/all query.

    The k-full variant lives on :meth:`QuerySpec.cache_key`; this one
    drops ``k`` so every k of the same ranked query shares one cached
    prefix. ``repr(float(rmax))`` makes ``0.5`` and ``0.50`` collide.
    """
    return (f"kw={','.join(keywords)}|mode={mode}"
            f"|rmax={float(rmax)!r}|alg={algorithm}|agg={aggregate}")


@dataclass
class ResultCacheStats:
    """Traffic counters for one result cache.

    ``hits`` are answers served entirely from a cached prefix,
    ``extensions`` answers that resumed the cached frontier for the
    tail, ``misses`` everything that fell through to a full
    recomputation (absent, stale, or unextendable entries).
    ``errors`` counts lookups that raised (the chaos failpoint) and
    degraded to a recompute.
    """

    hits: int = 0
    misses: int = 0
    extensions: int = 0
    evictions: int = 0
    invalidations: int = 0
    stale_drops: int = 0
    errors: int = 0

    @property
    def lookups(self) -> int:
        """Total fetch/attach decisions taken."""
        return self.hits + self.misses + self.extensions

    @property
    def hit_rate(self) -> float:
        """Prefix-served answers over lookups (extensions count half
        a hit is overthinking it — they count as hits here: the cache
        did save the prefix work)."""
        if not self.lookups:
            return 0.0
        return (self.hits + self.extensions) / self.lookups

    def as_dict(self) -> Dict[str, float]:
        """Flat metric view (``result_cache_*``) for /metrics and
        reports; ``hit_rate`` is a ratio — exporters should treat it
        as a gauge."""
        return {
            "result_cache_hits": float(self.hits),
            "result_cache_misses": float(self.misses),
            "result_cache_extensions": float(self.extensions),
            "result_cache_evictions": float(self.evictions),
            "result_cache_invalidations": float(self.invalidations),
            "result_cache_stale_drops": float(self.stale_drops),
            "result_cache_errors": float(self.errors),
            "result_cache_lookups": float(self.lookups),
            "result_cache_hit_rate": float(self.hit_rate),
        }


class ResultEntry:
    """One ranked answer: a materialized prefix + live frontier.

    ``prefix`` holds the first ``len(prefix)`` communities of the
    ranked stream in order, in ``G_D`` ids; ``stream`` is the retained
    raw :class:`~repro.core.comm_k.TopKStream`, positioned at or
    behind the end of the prefix (``None`` once exhausted or for
    answers that cannot be extended, e.g. a materialized
    non-streaming backend or a pool worker's answer), and
    ``translate`` maps its answers to ``G_D`` ids (``None`` when it
    runs on ``G_D`` itself, and with the stream once it exhausts);
    ``complete`` means the prefix is the whole answer. A stream falls
    behind when another process's answer grows the prefix; it replays
    the gap before it extends. ``resume``, when set, builds a fresh
    ``(stream, translate)`` pair on the entry's state for a prefix
    that has none. All of these mutate under ``lock`` — entry locks
    nest *inside* nothing and may take the owning cache's lock for
    byte accounting, never the reverse.
    """

    __slots__ = ("key", "generation", "prefix", "stream", "translate",
                 "complete", "resume", "nbytes", "lock")

    def __init__(self, key: str, generation: str,
                 stream=None,
                 translate: Optional[Callable[[Community],
                                              Community]] = None,
                 prefix: Optional[List[Community]] = None,
                 complete: bool = False) -> None:
        self.key = key
        self.generation = generation
        self.prefix: List[Community] = (list(prefix)
                                        if prefix is not None else [])
        self.stream = stream
        self.translate = translate
        self.complete = complete
        self.resume: Optional[Callable[[QueryContext], Any]] = None
        self.nbytes = ENTRY_OVERHEAD_BYTES + sum(
            community_nbytes(c) for c in self.prefix)
        self.lock = threading.Lock()

    @property
    def extendable(self) -> bool:
        """Whether the prefix can grow here: it is not the whole
        answer, and a stream is retained or can be rebuilt."""
        return not self.complete and (self.stream is not None
                                      or self.resume is not None)


class ResultCache:
    """Byte-bounded LRU of ``canonical key -> ResultEntry``.

    ``max_bytes <= 0`` builds a disabled cache: every probe misses
    without counting, every install is a no-op — the engine keeps one
    unconditional attribute instead of ``Optional`` plumbing.
    """

    def __init__(self,
                 max_bytes: int = DEFAULT_RESULT_CACHE_BYTES) -> None:
        self.max_bytes = max(0, int(max_bytes))
        self.enabled = self.max_bytes > 0
        self.stats = ResultCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, ResultEntry]" = OrderedDict()
        self._bytes = 0

    # ------------------------------------------------------------------
    # raw lookup / install
    # ------------------------------------------------------------------
    def lookup(self, key: str, generation: str
               ) -> Optional[ResultEntry]:
        """The live entry for ``key``, or ``None`` on miss/stale.

        An entry tagged with another generation is dropped on sight —
        after a snapshot swap the old graph's communities must never
        be served again. The ``results.cache.lookup`` failpoint fires
        here; callers (``fetch``/``attach``) catch and degrade.
        """
        faults.hit("results.cache.lookup")
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry.generation != generation:
                del self._entries[key]
                self._bytes -= entry.nbytes
                self.stats.stale_drops += 1
                return None
            self._entries.move_to_end(key)
            return entry

    def install(self, entry: ResultEntry) -> None:
        """Insert (or replace) an entry, evicting LRU past the
        byte budget."""
        if not self.enabled:
            return
        with self._lock:
            self._put_locked(entry)

    def offer(self, key: str, generation: str,
              prefix: Sequence[Community],
              complete: bool) -> List[Community]:
        """Install a ranked prefix computed in another process (a
        pool worker's answer) without losing anything cached here.

        With no live entry for ``key`` under ``generation`` the prefix
        becomes one. A live entry only grows: a longer prefix extends
        it and the entry keeps its stream, which replays the gap
        before its next extension; a complete answer completes it.
        Returns the prefix with the entry's own instances where it
        held them, whose stored JSON texts a response reuses.
        """
        if not self.enabled:
            return list(prefix)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.generation != generation:
                self._put_locked(ResultEntry(
                    key, generation, prefix=prefix, complete=complete))
                return list(prefix)
        with entry.lock:
            have = len(entry.prefix)
            if not entry.complete and len(prefix) >= have:
                tail = list(prefix[have:])
                entry.prefix.extend(tail)
                entry.complete = complete
                self._grow(entry,
                           sum(community_nbytes(c) for c in tail))
            served = entry.prefix[:len(prefix)]
        return served if len(served) == len(prefix) else list(prefix)

    def discard(self, key: str) -> None:
        """Forget one entry (poisoned-lookup recovery path)."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._bytes -= entry.nbytes

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def fetch(self, key: str, generation: str, k: Optional[int],
              context: Optional[QueryContext] = None,
              extend: bool = True) -> Optional[List[Community]]:
        """A materialized answer from cache, or ``None`` to recompute.

        ``k`` asks for a ranked prefix (sliced, or frontier-extended
        when ``extend`` allows); ``k=None`` asks for a complete
        COMM-all answer and only serves entries marked ``complete``.
        Counts ``result_cache_{hits,extensions,misses,errors}`` into
        both the cache stats and the caller's context; any exception
        (the chaos failpoint, a poisoned entry) is swallowed into a
        miss.
        """
        ctx = ensure_context(context)
        if not self.enabled:
            return None
        try:
            entry = self.lookup(key, generation)
        except Exception:
            self._count_error(ctx)
            return None
        if entry is None:
            self._count_miss(ctx)
            return None
        try:
            served, extended = self._serve(entry, k, ctx, extend)
        except Exception:
            self.discard(key)
            self._count_error(ctx)
            return None
        if served is None:
            self._count_miss(ctx)
            return None
        with self._lock:
            if extended:
                self.stats.extensions += 1
            else:
                self.stats.hits += 1
        ctx.count("result_cache_extensions" if extended
                  else "result_cache_hits")
        return served

    def attach(self, key: str, generation: str,
               context: Optional[QueryContext] = None,
               resume: Optional[Callable[[QueryContext], Any]] = None
               ) -> Optional[ResultEntry]:
        """The entry a new stream view should share, if one exists.

        The stream counterpart of :meth:`fetch`: a hit means the
        caller's :class:`CachedStream` serves the cached prefix before
        any enumeration happens (the session-reuse path). An entry
        that holds an unfinished prefix with no stream keeps
        ``resume`` to build one when a view walks past the prefix."""
        ctx = ensure_context(context)
        if not self.enabled:
            return None
        try:
            entry = self.lookup(key, generation)
        except Exception:
            self._count_error(ctx)
            return None
        if entry is None:
            self._count_miss(ctx)
            return None
        with entry.lock:
            if entry.stream is None and not entry.complete:
                entry.resume = entry.resume or resume
        with self._lock:
            self.stats.hits += 1
        ctx.count("result_cache_hits")
        return entry

    def materialize(self, entry: ResultEntry, k: int,
                    context: Optional[QueryContext] = None
                    ) -> List[Community]:
        """Drive a freshly installed entry's stream out to ``k`` and
        return the prefix — the engine's cold-path pump (counts no
        cache traffic; the miss was already recorded)."""
        ctx = ensure_context(context)
        with entry.lock:
            if len(entry.prefix) < k and entry.stream is not None:
                self._extend_locked(entry, k, ctx)
            return entry.prefix[:k]

    def _serve(self, entry: ResultEntry, k: Optional[int],
               ctx: QueryContext, extend: bool
               ) -> Tuple[Optional[List[Community]], bool]:
        """Serve under the entry lock; ``(None, False)`` means the
        entry cannot satisfy the request (recompute)."""
        with entry.lock:
            if k is None:
                if not entry.complete:
                    return None, False
                served = list(entry.prefix)
                ctx.count("communities", len(served))
                return served, False
            have = len(entry.prefix)
            if have >= k or entry.complete:
                served = entry.prefix[:k]
                ctx.count("communities", len(served))
                return served, False
            if not (extend and entry.extendable):
                return None, False
            self._extend_locked(entry, k, ctx)
            served = entry.prefix[:k]
            # The tail was counted during extension; charge the
            # prefix-served head here.
            ctx.count("communities", min(have, len(served)))
            return served, True

    def _extend_locked(self, entry: ResultEntry, target: int,
                       ctx: QueryContext) -> int:
        """Pull the entry's stream until ``target`` communities are
        materialized (or it runs dry); returns how many it added.
        Caller holds ``entry.lock``.

        The one pump of every PDk stream: each ``Next()`` is timed as
        ``enumerate``, the map to ``G_D`` ids as ``translate``, and
        each new community is counted into ``ctx`` — the consumer who
        needed the tail pays for it; later consumers get it from the
        prefix for free. A stream behind the prefix (another process
        grew it on the same state) replays the gap untranslated.
        """
        if entry.stream is None:
            entry.stream, entry.translate = entry.resume(ctx)
            entry.resume = None
        stream, translate = entry.stream, entry.translate
        have = len(entry.prefix)
        added_bytes = 0
        while len(entry.prefix) < target and not stream.exhausted:
            start = time.perf_counter()
            community = stream.next_community()
            ctx.add_time("enumerate", time.perf_counter() - start)
            if stream.emitted <= len(entry.prefix):
                continue                  # the prefix holds it already
            if translate is not None:
                start = time.perf_counter()
                community = translate(community)
                ctx.add_time("translate", time.perf_counter() - start)
            ctx.count("communities")
            entry.prefix.append(community)
            added_bytes += community_nbytes(community)
        if stream.exhausted:
            # Drop the map too: it holds the projection alive.
            entry.complete = True
            entry.stream = entry.translate = None
        self._grow(entry, added_bytes)
        return len(entry.prefix) - have

    def _grow(self, entry: ResultEntry, added_bytes: int) -> None:
        """Charge ``added_bytes`` more to ``entry`` (caller holds its
        lock) and, while it is cached, to the budget."""
        if not added_bytes:
            return
        entry.nbytes += added_bytes
        with self._lock:
            if self._entries.get(entry.key) is entry:
                self._bytes += added_bytes
                self._evict_locked()

    # ------------------------------------------------------------------
    # invalidation / accounting
    # ------------------------------------------------------------------
    def invalidate(self) -> int:
        """Drop everything (generation swap); returns entries removed."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            if dropped:
                self.stats.invalidations += 1
            return dropped

    def _put_locked(self, entry: ResultEntry) -> None:
        """Insert or replace ``entry``; evict LRU past the budget."""
        old = self._entries.pop(entry.key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[entry.key] = entry
        self._bytes += entry.nbytes
        self._evict_locked()

    def _evict_locked(self) -> None:
        while self._bytes > self.max_bytes and self._entries:
            _, victim = self._entries.popitem(last=False)
            self._bytes -= victim.nbytes
            self.stats.evictions += 1

    def _count_miss(self, ctx: QueryContext) -> None:
        with self._lock:
            self.stats.misses += 1
        ctx.count("result_cache_misses")

    def _count_error(self, ctx: QueryContext) -> None:
        with self._lock:
            self.stats.errors += 1
        ctx.count("result_cache_errors")

    @property
    def bytes(self) -> int:
        """Estimated bytes of the communities currently retained."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Tuple[str, ...]:
        """Current keys, LRU-first (diagnostics)."""
        with self._lock:
            return tuple(self._entries)

    def as_dict(self) -> Dict[str, float]:
        """Stats plus occupancy gauges, ready for /metrics and
        /healthz (``result_cache_bytes``/``entries``/``capacity``)."""
        flat = self.stats.as_dict()
        with self._lock:
            flat["result_cache_bytes"] = float(self._bytes)
            flat["result_cache_entries"] = float(len(self._entries))
        flat["result_cache_capacity_bytes"] = float(self.max_bytes)
        return flat


class CachedStream:
    """A per-consumer cursor over one :class:`ResultEntry` — the one
    shape of a PDk stream.

    Several sessions (and repeated ``/query`` calls) share a cached
    entry: each view serves ``prefix[cursor:]`` with **zero**
    enumeration work, and only the view that walks past the frontier
    pays to extend it — everyone after rides the longer prefix. With
    the cache disabled a view owns an entry that is never installed.
    Mirrors the :class:`~repro.core.comm_k.TopKStream` surface
    (``take``/``more``/``next_community``/``emitted``/``exhausted``).
    """

    def __init__(self, cache: ResultCache, entry: ResultEntry,
                 context: Optional[QueryContext] = None) -> None:
        self._cache = cache
        self._entry = entry
        self._context = context
        self._cursor = 0

    def next_community(self) -> Optional[Community]:
        """Next ranked community, or ``None`` once exhausted."""
        batch = self.take(1)
        return batch[0] if batch else None

    def take(self, k: int, context: Optional[QueryContext] = None
             ) -> List[Community]:
        """Up to ``k`` further communities (cached prefix first),
        charged to ``context`` — the view's own when not given."""
        if k < 0:
            raise QueryError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        cache, entry = self._cache, self._entry
        ctx = ensure_context(context if context is not None
                             else self._context)
        target = self._cursor + k
        with entry.lock:
            have = len(entry.prefix)
            if target > have and entry.extendable:
                added = cache._extend_locked(entry, target, ctx)
                if added and cache.enabled:
                    with cache._lock:
                        cache.stats.extensions += 1
                    ctx.count("result_cache_extensions")
            end = min(target, len(entry.prefix))
            batch = entry.prefix[self._cursor:end]
            from_prefix = max(0, min(have, end) - self._cursor)
        if from_prefix:
            ctx.count("communities", from_prefix)
        self._cursor += len(batch)
        return batch

    more = take

    @property
    def emitted(self) -> int:
        """Communities this view has produced (not the shared total)."""
        return self._cursor

    @property
    def exhausted(self) -> bool:
        """True when this view has consumed the complete answer."""
        entry = self._entry
        with entry.lock:
            if self._cursor < len(entry.prefix):
                return False
            if entry.complete:
                return True
            stream = entry.stream
            return stream is not None and stream.exhausted

    def __iter__(self):
        while True:
            community = self.next_community()
            if community is None:
                return
            yield community
