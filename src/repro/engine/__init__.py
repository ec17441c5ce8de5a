"""The execution engine: specs, registry, projection cache, contexts.

This subsystem is the seam between the inverted indexes and the
paper's algorithms, introduced so every query path — facade, CLI,
benchmarks — shares one plan/execute/instrument pipeline:

* :mod:`repro.engine.spec` — :class:`QuerySpec`, the validated
  immutable description of one COMM-all/COMM-k query;
* :mod:`repro.engine.context` — :class:`QueryContext`, per-stage
  wall-clock and counters flowing through one channel;
* :mod:`repro.engine.registry` — :class:`AlgorithmRegistry` with the
  uniform backend contract (``pd``/``bu``/``td``/``naive`` built in);
* :mod:`repro.engine.cache` — :class:`ProjectionCache`, LRU over
  Algorithm 6 results with generation-based invalidation;
* :mod:`repro.engine.results` — :class:`ResultCache`, the
  generation-keyed answer cache with ranked-prefix reuse (exact
  repeats are lookups, larger k resumes the cached frontier), and
  :class:`CachedStream`, the view over one result entry that every
  interactive PDk stream is, with the cache on or off;
* :mod:`repro.engine.engine` — :class:`QueryEngine`, tying the above
  together (and :func:`translate_community`).
"""

from repro.engine.cache import CacheStats, ProjectionCache
from repro.engine.context import QueryContext, ensure_context
from repro.engine.engine import QueryEngine, translate_community
from repro.engine.registry import (
    REGISTRY,
    AlgorithmRegistry,
    AlgorithmSpec,
    default_registry,
)
from repro.engine.results import (
    DEFAULT_RESULT_CACHE_BYTES,
    CachedStream,
    ResultCache,
    ResultCacheStats,
    ResultEntry,
    community_nbytes,
    result_key,
)
from repro.engine.spec import QuerySpec

__all__ = [
    "DEFAULT_RESULT_CACHE_BYTES",
    "REGISTRY",
    "AlgorithmRegistry",
    "AlgorithmSpec",
    "CacheStats",
    "CachedStream",
    "ProjectionCache",
    "QueryContext",
    "QueryEngine",
    "QuerySpec",
    "ResultCache",
    "ResultCacheStats",
    "ResultEntry",
    "community_nbytes",
    "default_registry",
    "ensure_context",
    "result_key",
    "translate_community",
]
