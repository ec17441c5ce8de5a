"""Multi-core query execution over shared snapshots.

CPython's GIL means the service's thread pool overlaps I/O but never
computation — one process enumerates communities on one core no
matter how many admission threads it has. This subpackage adds the
process tier:

* :class:`~repro.parallel.pool.WorkerPool` — N worker processes, each
  loading its own engine from the *same immutable snapshot*, served
  tasks over per-worker queues with crash detection and respawn;
* :class:`~repro.parallel.engine.ParallelQueryEngine` — a
  ``QueryEngine`` subclass the service serves like any engine: it
  inherits the one query path and overrides only how a result-cache
  miss is computed (on a pool worker), while sessions, projections
  and identity are the parent's own inherited state;
  ``swap_snapshot`` broadcasts reloads to every worker without
  dropping in-flight queries.

``repro serve --snapshot S --workers N`` wires this in; ``POST
/batch`` fans a list of queries across the pool from one request.
"""

from repro.parallel.engine import (
    DEFAULT_POOL_WORKERS,
    ParallelQueryEngine,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.worker import worker_main

__all__ = [
    "DEFAULT_POOL_WORKERS",
    "ParallelQueryEngine",
    "WorkerPool",
    "worker_main",
]
