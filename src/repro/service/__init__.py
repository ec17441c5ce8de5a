"""The serving layer: the engine behind a concurrent HTTP/JSON API.

Everything here is standard library only — ``socketserver``,
``socket``, ``queue``, ``threading`` — so serving costs no new
dependencies:

* :mod:`repro.service.server` — :class:`CommunityService`, the
  HTTP server (``/query``, ``/sessions``, ``/sessions/{id}/next``,
  ``/metrics``, ``/healthz``);
* :mod:`repro.service.sessions` — :class:`SessionManager`, TTL- and
  generation-checked leases over interactive PDk streams;
* :mod:`repro.service.admission` — :class:`AdmissionController`,
  the bounded worker pool that sheds (429/503) instead of queueing
  unboundedly;
* :mod:`repro.service.querylog` — :class:`QueryLog`, the ring-buffer
  ledger of admitted specs that feeds post-reload cache warming and
  the offline hot-key miner;
* :mod:`repro.service.metrics` — Prometheus text exposition;
* :mod:`repro.service.serialize` — the one JSON vocabulary shared by
  the HTTP API and ``python -m repro query --json``;
* :mod:`repro.service.client` — :class:`ServiceClient` /
  :class:`ServiceSession`, the matching dependency-free client on a
  blocking socket;
* :mod:`repro.service.wire` — the HTTP/1.1 message format,
  ``ClientCore`` (both clients), and the transport, route table and
  response writer of both servers (this one and the shard router): a
  thread per connection, one request reader;
* :mod:`repro.service.errors` — the HTTP-mapped error taxonomy.

Start one from the shell with ``python -m repro serve ...``.
"""

from repro.service.admission import AdmissionController, AdmissionStats
from repro.service.client import ServiceClient, ServiceSession
from repro.service.errors import (
    BadRequest,
    Conflict,
    DeadlineExceeded,
    NotFound,
    Overloaded,
    ServiceError,
    ServiceUnreachable,
    SessionGone,
    ShuttingDown,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.querylog import QueryLog
from repro.service.server import CommunityService
from repro.service.sessions import (
    SessionLease,
    SessionManager,
    SessionPage,
    SessionStats,
)

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "BadRequest",
    "CommunityService",
    "Conflict",
    "DeadlineExceeded",
    "LatencyHistogram",
    "NotFound",
    "Overloaded",
    "QueryLog",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "ServiceSession",
    "ServiceUnreachable",
    "SessionGone",
    "SessionLease",
    "SessionManager",
    "SessionPage",
    "SessionStats",
    "ShuttingDown",
]
