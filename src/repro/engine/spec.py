"""Query descriptions the execution engine consumes.

A :class:`QuerySpec` is the complete, immutable statement of one
community query: the keywords, the radius ``Rmax``, COMM-all vs
COMM-k, the algorithm backend, the cost aggregate, and the optional
time budget for the pool-based baselines. Every entry point — the
:class:`~repro.core.search.CommunitySearch` facade, the CLI, the
benchmark harness — normalizes its arguments into a spec and hands it
to :class:`~repro.engine.engine.QueryEngine`, so validation and
defaulting live in exactly one place.

Specs are hashable and render to :meth:`QuerySpec.cache_key`, one
canonical string covering everything that determines the answer —
keywords (sorted + casefolded by construction), mode, k, rmax
(repr-stable float formatting, so ``0.5`` and ``0.50`` collide),
algorithm and aggregate. The result cache
(:mod:`repro.engine.results`) and the service query log key on it;
the projection cache keys on the narrower ``(keyword set, rmax)``
pair since Algorithm 6 sees nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.core.cost import AggregateSpec
from repro.exceptions import QueryError

#: The two query problems of the paper (Definitions 2.2 and 2.3).
MODES = ("all", "topk")


@dataclass(frozen=True)
class QuerySpec:
    """One community query, fully specified and validated.

    ``mode`` is ``"all"`` (COMM-all) or ``"topk"`` (COMM-k, requires
    ``k``). ``use_projection=None`` means "project whenever an index
    exists" — the paper's benchmark setup. ``budget_seconds`` censors
    the combinatorial BU/TD baselines and is ignored by the
    polynomial-delay algorithms.
    """

    keywords: Tuple[str, ...]
    rmax: float
    mode: str = "all"
    k: Optional[int] = None
    algorithm: str = "pd"
    aggregate: AggregateSpec = "sum"
    use_projection: Optional[bool] = None
    budget_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        """Normalize the keyword sequence and validate every field.

        Keywords are case-folded (the tokenizer lowercases the
        vocabulary, so ``"XML"`` and ``"xml"`` name the same posting
        list) and sorted, so ``{a, b}`` and ``{b, a}`` build *equal*
        specs: they share one projection-cache entry, one engine
        code path, and one routing decision. Core tuples in answers
        are therefore always ordered by the sorted keyword list.
        """
        object.__setattr__(
            self, "keywords",
            tuple(sorted(kw.casefold() for kw in self.keywords)))
        if not self.keywords:
            raise QueryError("a query needs at least one keyword")
        if not self.rmax >= 0:          # NaN fails every comparison
            raise QueryError(f"Rmax must be >= 0, got {self.rmax}")
        if self.mode not in MODES:
            raise QueryError(
                f"unknown query mode {self.mode!r}; expected one of "
                f"{MODES}")
        if self.mode == "topk":
            if self.k is None:
                raise QueryError("COMM-k needs k")
            if self.k <= 0:
                raise QueryError(f"k must be positive, got {self.k}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def comm_all(cls, keywords: Sequence[str], rmax: float,
                 **options) -> "QuerySpec":
        """A COMM-all spec (Definition 2.2)."""
        return cls(tuple(keywords), rmax, mode="all", **options)

    @classmethod
    def comm_k(cls, keywords: Sequence[str], k: int, rmax: float,
               **options) -> "QuerySpec":
        """A COMM-k spec (Definition 2.3)."""
        return cls(tuple(keywords), rmax, mode="topk", k=k, **options)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def cache_key(self) -> str:
        """One canonical string naming this query's answer.

        Two specs that must produce identical answers produce equal
        keys: keywords are already sorted and casefolded, and
        ``repr(float(rmax))`` normalizes numerically equal radii
        (``0.5`` vs ``0.50``). ``use_projection`` and
        ``budget_seconds`` are deliberately excluded — the projection
        is exact and the budget only censors backends the result
        cache refuses to serve anyway."""
        k = self.k if self.k is not None else "-"
        return (f"kw={','.join(self.keywords)}|mode={self.mode}"
                f"|k={k}|rmax={float(self.rmax)!r}"
                f"|alg={self.algorithm}|agg={self.aggregate}")

    def with_algorithm(self, algorithm: str) -> "QuerySpec":
        """The same query routed to a different backend."""
        return replace(self, algorithm=algorithm)

    def describe(self) -> str:
        """A one-line human-readable rendering (CLI/bench labels)."""
        head = (f"COMM-{'k' if self.mode == 'topk' else 'all'}"
                f"({', '.join(self.keywords)}; Rmax={self.rmax:g}")
        if self.mode == "topk":
            head += f", k={self.k}"
        return f"{head}) via {self.algorithm}/{self.aggregate}"
