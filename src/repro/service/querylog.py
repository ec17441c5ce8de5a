"""Ring-buffer query log: the service's record of what is hot.

Every ``/query`` and ``/batch`` spec the service admits is recorded
here under its canonical :meth:`~repro.engine.spec.QuerySpec.
cache_key` — the same normalization the result cache uses, so two
requests that collide in the cache collide in the log too (keyword
order and case, ``0.5`` vs ``0.50`` rmax spellings). The log answers
one question: *which specs should a fresh generation's result cache
be warmed with?*

Two consumers:

* the service itself, right after ``POST /admin/reload`` adopts a new
  generation — it mines its own log and replays the top-N specs into
  the (freshly invalidated) result cache before the next client asks;
* the offline miner (``python -m repro warm`` /
  :mod:`repro.analysis.hot_keys`) via ``GET /admin/querylog``.

The buffer is a fixed-size ring (default 4096 entries): old traffic
ages out as new traffic arrives, so the "hot" set tracks the recent
workload, not all history. Aggregated counts are maintained
incrementally — :meth:`top` is O(distinct keys log n), not a replay.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.engine.spec import QuerySpec

#: Default ring capacity — enough to see a real workload's head
#: without unbounded growth.
DEFAULT_QUERYLOG_CAPACITY = 4096


class QueryLog:
    """Thread-safe ring buffer of normalized query specs."""

    def __init__(self,
                 capacity: int = DEFAULT_QUERYLOG_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(
                f"querylog capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._ring: Deque[str] = deque()
        #: key -> (live count in ring, representative spec).
        #: Insertion-ordered so ties in :meth:`top` break toward the
        #: key seen first.
        self._entries: "OrderedDict[str, Tuple[int, QuerySpec]]" \
            = OrderedDict()
        self._recorded = 0
        self._lock = threading.Lock()

    def record(self, spec: QuerySpec) -> None:
        """Log one admitted spec (evicting the oldest if full).

        The representative is kept without the client's time budget,
        which the key ignores too: a warming replay computes the
        whole answer.
        """
        key = spec.cache_key()
        spec = replace(spec, budget_seconds=None)
        with self._lock:
            self._recorded += 1
            if len(self._ring) >= self.capacity:
                oldest = self._ring.popleft()
                count, kept = self._entries[oldest]
                if count <= 1:
                    del self._entries[oldest]
                else:
                    self._entries[oldest] = (count - 1, kept)
            self._ring.append(key)
            if key in self._entries:
                count, _ = self._entries[key]
                self._entries[key] = (count + 1, spec)
            else:
                self._entries[key] = (1, spec)

    def _hottest(self, n: Optional[int]
                 ) -> List[Tuple[str, int, QuerySpec]]:
        """``(key, count, spec)`` rows, most-frequent first; ties keep
        first-seen order."""
        with self._lock:
            rows = [(key, count, spec)
                    for key, (count, spec) in self._entries.items()]
        rows.sort(key=lambda row: -row[1])
        return rows if n is None else rows[:max(0, int(n))]

    def top(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The hottest specs, most-frequent first.

        Each row is ``{"key", "count", "query"}`` where ``query`` is
        the ``/query`` body the request parser reads back as the
        spec (:func:`~repro.service.server.request_of`), so a miner
        can replay it verbatim as a warming query. Ties keep
        first-seen order.
        """
        # Imported here: the server module imports this one.
        from repro.service.server import request_of

        return [{"key": key, "count": count, "query": request_of(spec)}
                for key, count, spec in self._hottest(n)]

    def top_specs(self, n: Optional[int] = None) -> List[QuerySpec]:
        """The hottest specs, most-frequent first."""
        return [spec for _, _, spec in self._hottest(n)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def recorded(self) -> int:
        """Total specs ever recorded (including aged-out ones)."""
        with self._lock:
            return self._recorded

    def as_dict(self) -> Dict[str, Any]:
        """Log shape for ``GET /admin/querylog`` and ``/healthz``."""
        with self._lock:
            size = len(self._ring)
            distinct = len(self._entries)
            recorded = self._recorded
        return {
            "capacity": self.capacity,
            "size": size,
            "distinct": distinct,
            "recorded": recorded,
        }
