"""High-level facade: index once, project per query, run any algorithm.

:class:`CommunitySearch` is the API a downstream user touches::

    search = CommunitySearch(dbg)          # or .from_database(db)
    search.build_index(radius=8)
    for community in search.all_communities(["kate", "smith"], rmax=6):
        print(community.describe(dbg))

    stream = search.top_k_stream(["kate", "smith"], rmax=6)
    first = stream.take(10)
    fifty_more = stream.more(50)           # no recomputation (PDk)

Since the engine refactor this class is a thin wrapper over
:class:`repro.engine.QueryEngine`: it normalizes arguments into
:class:`~repro.engine.spec.QuerySpec` s and delegates. That buys every
caller the engine's algorithm registry (no per-backend kwargs
plumbing), its LRU projection cache (repeated ``(keywords, rmax)``
queries skip Algorithm 6 — see :mod:`repro.engine.cache`), and its
per-stage instrumentation (pass ``context=QueryContext()`` to any
query method and read back stage timings and counters).

Queries run on the Algorithm-6 projection whenever an index exists
(exactly how the paper benchmarks every algorithm); results are
translated back to ``G_D`` ids, and their edge sets re-induced against
``G_D`` so Definition 2.1 holds verbatim (see
:mod:`repro.core.projection` for why).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.baselines.pool import BaselineStats
from repro.core.community import Community
from repro.core.cost import AggregateSpec
from repro.core.projection import ProjectionResult
from repro.engine.cache import DEFAULT_CAPACITY
from repro.engine.context import QueryContext
from repro.engine.engine import QueryEngine
from repro.engine.registry import REGISTRY, AlgorithmRegistry
from repro.engine.spec import QuerySpec
from repro.graph.database_graph import DatabaseGraph
from repro.text.inverted_index import CommunityIndex
from repro.text.maintenance import GraphDelta

#: Algorithms accepted by :meth:`CommunitySearch.all_communities`
#: (the default registry's backends; a custom registry may add more).
ALL_ALGORITHMS = ("pd", "bu", "td", "naive")

#: Algorithms accepted by :meth:`CommunitySearch.top_k`.
TOPK_ALGORITHMS = ("pd", "bu", "td", "naive")

__all__ = [
    "ALL_ALGORITHMS",
    "TOPK_ALGORITHMS",
    "CommunitySearch",
]


class CommunitySearch:
    """Community search over one database graph."""

    def __init__(self, dbg: DatabaseGraph,
                 index: Optional[CommunityIndex] = None,
                 registry: Optional[AlgorithmRegistry] = None,
                 cache_capacity: int = DEFAULT_CAPACITY) -> None:
        self.engine = QueryEngine(
            dbg, index=index,
            registry=registry if registry is not None else REGISTRY,
            cache_capacity=cache_capacity)

    @classmethod
    def from_database(cls, db, **graph_kwargs) -> "CommunitySearch":
        """Materialize a relational database and search it."""
        from repro.rdb.graph_builder import build_database_graph
        return cls(build_database_graph(db, **graph_kwargs))

    # ------------------------------------------------------------------
    # delegated state
    # ------------------------------------------------------------------
    @property
    def dbg(self) -> DatabaseGraph:
        """The database graph queries run against."""
        return self.engine.dbg

    @property
    def index(self) -> Optional[CommunityIndex]:
        """The attached index; assigning one evicts cached projections."""
        return self.engine.index

    @index.setter
    def index(self, index: Optional[CommunityIndex]) -> None:
        """Attach/replace the index through the engine (generation
        bump + cache invalidation)."""
        self.engine.index = index

    # ------------------------------------------------------------------
    # indexing / projection / maintenance
    # ------------------------------------------------------------------
    def build_index(self, radius: float,
                    keywords: Optional[Sequence[str]] = None
                    ) -> CommunityIndex:
        """Build (and attach) the two inverted indexes for radius R."""
        return self.engine.build_index(radius, keywords)

    def project(self, keywords: Sequence[str], rmax: float,
                context: Optional[QueryContext] = None
                ) -> ProjectionResult:
        """Algorithm 6 projection for one query (requires an index).

        Served from the engine's LRU cache when the same
        ``(keyword set, rmax)`` was projected since the last index
        change."""
        return self.engine.project(keywords, rmax, context)

    def apply_delta(self, delta: GraphDelta,
                    banks_reweight: bool = False
                    ) -> Tuple[DatabaseGraph, CommunityIndex]:
        """Grow the graph + index in place and evict stale projections.

        Convenience wrapper over
        :func:`repro.text.maintenance.apply_delta` that keeps this
        facade (and its projection cache) consistent afterwards."""
        return self.engine.apply_delta(delta, banks_reweight)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def all_communities(self, keywords: Sequence[str], rmax: float,
                        algorithm: str = "pd",
                        use_projection: Optional[bool] = None,
                        aggregate: AggregateSpec = "sum",
                        budget_seconds: Optional[float] = None,
                        stats: Optional[BaselineStats] = None,
                        context: Optional[QueryContext] = None
                        ) -> List[Community]:
        """COMM-all: every community, duplication-free.

        ``algorithm`` names any registered backend (``"pd"`` —
        Algorithm 1 —, ``"bu"``, ``"td"``, ``"naive"`` by default).
        With ``use_projection`` unset, the projection is used whenever
        an index exists. ``aggregate`` picks the cost function ("sum"
        — the paper's — or "max").
        """
        return list(self.iter_all(keywords, rmax, algorithm,
                                  use_projection, aggregate,
                                  budget_seconds, stats, context))

    def iter_all(self, keywords: Sequence[str], rmax: float,
                 algorithm: str = "pd",
                 use_projection: Optional[bool] = None,
                 aggregate: AggregateSpec = "sum",
                 budget_seconds: Optional[float] = None,
                 stats: Optional[BaselineStats] = None,
                 context: Optional[QueryContext] = None
                 ) -> Iterator[Community]:
        """Streaming COMM-all (PDall streams with polynomial delay;
        the baselines materialize before yielding)."""
        spec = QuerySpec.comm_all(
            keywords, rmax, algorithm=algorithm,
            use_projection=use_projection, aggregate=aggregate,
            budget_seconds=budget_seconds)
        return self.engine.iter_all(
            spec, self._context(context, stats))

    def top_k(self, keywords: Sequence[str], k: int, rmax: float,
              algorithm: str = "pd",
              use_projection: Optional[bool] = None,
              aggregate: AggregateSpec = "sum",
              budget_seconds: Optional[float] = None,
              stats: Optional[BaselineStats] = None,
              context: Optional[QueryContext] = None
              ) -> List[Community]:
        """COMM-k: the top-k communities in ascending cost order."""
        spec = QuerySpec.comm_k(
            keywords, k, rmax, algorithm=algorithm,
            use_projection=use_projection, aggregate=aggregate,
            budget_seconds=budget_seconds)
        return self.engine.top_k(spec, self._context(context, stats))

    def top_k_stream(self, keywords: Sequence[str], rmax: float,
                     use_projection: Optional[bool] = None,
                     aggregate: AggregateSpec = "sum",
                     context: Optional[QueryContext] = None):
        """A PDk stream: iterate, or ``take(k)`` then ``more(n)``
        interactively with no recomputation."""
        return self.engine.top_k_stream(keywords, rmax, use_projection,
                                        aggregate, context)

    # ------------------------------------------------------------------
    @staticmethod
    def _context(context: Optional[QueryContext],
                 stats: Optional[BaselineStats]) -> QueryContext:
        """Merge the legacy ``stats`` argument into one context."""
        ctx = context if context is not None else QueryContext()
        if stats is not None:
            ctx.baseline = stats
        return ctx
