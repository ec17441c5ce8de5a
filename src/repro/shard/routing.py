"""Transport-agnostic routing policy behind the asyncio router.

:class:`RouterCore` is everything the scatter-gather router knows
that does **not** involve sockets or the event loop: parsing query
specs, building the leg payloads, checking that each shard answered
only with communities it owns, merging one round of legs, passing a
shard's refusal on as the router's own, assembling response
envelopes with the partial-result contract, aggregating health rows,
adopting new manifest generations, and rendering ``repro_router_*``
metrics. The router decides nothing that a shard does not decide
again: every query goes to every shard, and each shard holds the
whole index, so an unknown keyword or an ``rmax`` above the index
radius is refused by the shards exactly as the single box refuses
it. The front end (:class:`~repro.shard.aio.AsyncRouterService`)
owns only *how* legs fan out.

Every request handler captures the manifest **once** via
:meth:`RouterCore.capture` and threads it through the request: a
concurrent ``/admin/reload`` swapping :attr:`RouterCore.manifest`
mid-request can therefore never mix two generations' shard tables
inside one answer — the same capture-once discipline the engine
applies to snapshots.

:func:`reload_fleet` is the admin plane: the verify-then-rollback
manifest rollout, including the cross-box form that pushes each
shard's snapshot over the wire (:func:`~repro.service.http.
push_snapshot`) and reloads by snapshot id, so partition and serve
need no shared filesystem. It is deliberately synchronous — reloads
are rare and walk every replica in order; the router runs it on an
executor thread over blocking
:class:`~repro.service.client.ServiceClient` s. Those share their
framing, retry policy and error mapping with the query legs'
:class:`~repro.shard.aio.AsyncShardClient` (both are
:class:`~repro.service.wire.ClientCore`); running the reload on the
event loop instead would need an async twin of ``push_snapshot``, a
second transfer driver.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, List, Optional,
                    Sequence, Tuple, Union)

from repro.core.community import Community
from repro.engine.registry import REGISTRY
from repro.engine.spec import QuerySpec
from repro.exceptions import ServiceError, SnapshotFormatError
from repro.service.client import ServiceClient
from repro.service.errors import RETRYABLE_STATUSES, BadRequest
from repro.service.http import push_snapshot
from repro.service.metrics import ServiceMetrics
from repro.service.serialize import (
    communities_from_dicts,
    community_to_dict,
    spec_to_dict,
)
from repro.service.server import (
    _float_of,
    _parse_body,
    queries_of,
    request_of,
    spec_of,
)
from repro.shard.manifest import RoutingManifest
from repro.shard.merge import (
    MergeOutcome,
    filter_owned,
    merge_all,
    merge_top_k,
)

if TYPE_CHECKING:
    from repro.shard.aio import AsyncReplicaSet

PathLike = Union[str, Path]

#: Default per-leg socket timeout (seconds). Shorter than the client
#: default: a hung shard should cost one partial result, not a stuck
#: router thread.
DEFAULT_SHARD_TIMEOUT = 10.0

#: Default idempotent-retry budget per shard leg (PR 5 semantics).
DEFAULT_SHARD_RETRIES = 2


def parse_shard_urls(specs: Sequence[str]) -> List[List[str]]:
    """Expand ``--shard-url`` values into per-shard replica lists.

    Each spec names one shard's siblings as a comma-separated URL
    list (``"http://a:8420,http://b:8420"``); a bare URL is a
    replica set of one. Empty specs raise
    :class:`~repro.exceptions.ServiceError`.
    """
    groups: List[List[str]] = []
    for position, spec in enumerate(specs):
        urls = [url.strip().rstrip("/")
                for url in str(spec).split(",") if url.strip()]
        if not urls:
            raise ServiceError(
                f"shard URL #{position} is empty: every shard needs "
                f"at least one replica URL")
        groups.append(urls)
    return groups


def _should_failover(error: ServiceError) -> bool:
    """Whether a sibling replica could plausibly answer instead.

    Transport failures and shedding (429/503 — the retryable
    statuses) are box-local conditions; deterministic 4xx rejections
    are not."""
    return getattr(error, "status", 500) in RETRYABLE_STATUSES


def _refused(result: Any) -> bool:
    """Whether a leg's outcome is the shard refusing the request: a
    4xx other than shedding (429), which the single box would answer
    too. Transport failures, 503s and 5xxs are outages instead."""
    return isinstance(result, ServiceError) \
        and 400 <= result.status < 500 \
        and result.status not in RETRYABLE_STATUSES


class QueryPlan:
    """One parsed ``/query`` request, pinned to a manifest capture."""

    def __init__(self, manifest: RoutingManifest, spec: QuerySpec,
                 deadline: Optional[float], want_labels: bool) -> None:
        self.manifest = manifest
        self.spec = spec
        self.deadline = deadline
        self.want_labels = want_labels
        #: Node labels by global id, filled while absorbing legs
        #: (``None`` when the caller did not ask for labels).
        self.labels: Optional[Dict[str, str]] = \
            {} if want_labels else None
        #: Shards whose legs answered from their result caches
        #: (``"cached": true`` in the leg envelope) — surfaced as
        #: ``shards_cached`` in the merged response.
        self.cached_shards: set = set()


class RouterCore:
    """The router's shared brain: policy, validation, bookkeeping."""

    def __init__(self, manifest: RoutingManifest,
                 root: Optional[PathLike] = None) -> None:
        self.manifest = manifest
        self.root = Path(root) if root is not None else None
        self.metrics = ServiceMetrics()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        """Bump a router counter (rendered with a ``_total`` suffix)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) \
                + value

    def gauge(self, name: str, value: float) -> None:
        """Set a router gauge."""
        with self._lock:
            self._gauges[name] = value

    def observe_leg(self, shard_id: int, status: int,
                    seconds: float) -> None:
        """Record one fan-out leg's latency under a per-shard label."""
        self.metrics.observe_request(f"shard:{shard_id:02d}", status,
                                     seconds)

    def note_failover(self, shard_id: int, from_url: str,
                      to_url: str) -> None:
        """Count one replica failover (the ``on_failover`` hook)."""
        self.count("failover")

    # ------------------------------------------------------------------
    # manifest lifecycle
    # ------------------------------------------------------------------
    def capture(self) -> RoutingManifest:
        """The manifest for one request — read once, used throughout."""
        with self._lock:
            return self.manifest

    def adopt(self, manifest: RoutingManifest,
              root: Path) -> None:
        """Switch to a freshly rolled-out manifest generation."""
        with self._lock:
            self.manifest = manifest
            if self.root is None:
                self.root = root

    # ------------------------------------------------------------------
    # request parsing
    # ------------------------------------------------------------------
    def parse_query(self, body: bytes) -> QueryPlan:
        """Parse one ``/query`` body against a manifest capture.

        The spec is parsed by the backends' own :func:`~repro.service.
        server.spec_of`, with the default registry every ``serve``
        backend runs; what only the index can refuse, the shards
        refuse (:meth:`reduce`).
        """
        manifest = self.capture()
        payload = _parse_body(body)
        spec = spec_of(payload, REGISTRY)
        deadline = _float_of(payload, "deadline_seconds",
                             required=False)
        want_labels = bool(payload.get("labels", False))
        self.count("queries")
        return QueryPlan(manifest, spec, deadline, want_labels)

    def parse_batch(self, body: bytes
                    ) -> Tuple[List[QueryPlan], Optional[float], bool]:
        """Parse one ``/batch`` body into per-entry plans.

        All entries share one manifest capture — a batch must not
        straddle a reload either.
        """
        manifest = self.capture()
        payload = _parse_body(body)
        queries = queries_of(payload)
        deadline = _float_of(payload, "deadline_seconds",
                             required=False)
        want_labels = bool(payload.get("labels", False))
        plans = [QueryPlan(manifest, spec_of(query, REGISTRY), deadline,
                           want_labels) for query in queries]
        self.count("queries", len(plans))
        self.count("batches")
        return plans, deadline, want_labels

    # ------------------------------------------------------------------
    # leg payloads and leg interpretation
    # ------------------------------------------------------------------
    @staticmethod
    def shard_payload(spec: QuerySpec, deadline: Optional[float],
                      labels: bool) -> Dict[str, Any]:
        """The ``/query`` body one shard leg carries: every field
        :func:`~repro.service.server.spec_of` reads, as
        :func:`~repro.service.server.request_of` writes it, plus the
        request's deadline and labels options."""
        payload = request_of(spec)
        if deadline is not None:
            payload["deadline_seconds"] = deadline
        if labels:
            payload["labels"] = True
        return payload

    def absorb(self, plan: QueryPlan, shard_id: int,
               result: Any) -> Optional[List[Community]]:
        """One leg's reply as answers; ``None`` when the leg failed.

        ``result`` is a response dict or the error that killed the
        leg. Shards answer in global ids, so answers and labels are
        taken as they arrive. A leg that answers with a community
        anchored on a node another shard owns is an *ownership
        violation* (the shard serves an unrestricted snapshot): it
        counts as a shard failure, and none of its answers are
        merged. Collects node labels into ``plan.labels`` when the
        caller asked shards for them.
        """
        if not isinstance(result, dict):
            return None
        raw = result.get("communities", [])
        answers = communities_from_dicts(raw)
        if len(filter_owned(answers, len(plan.manifest.shards),
                            shard_id)) != len(answers):
            self.count("ownership_violations")
            return None
        if result.get("cached"):
            plan.cached_shards.add(shard_id)
            self.count("cached_legs")
        if plan.labels is not None:
            for community in raw:
                plan.labels.update(community.get("labels", {}))
        return answers

    def reduce(self, plan: QueryPlan,
               responses: Dict[int, Any]) -> MergeOutcome:
        """Merge one fan-out round of leg replies, one per shard.

        A leg the shard refused (a 4xx other than 429: an unknown
        keyword, an ``rmax`` above the index radius, a field the
        backend rejects) is raised as the router's own reply, with
        the shard's status and message — the single box refuses the
        same request, even when another shard's leg failed. Top-k
        plans merge by ``(cost, core)`` and keep ``k`` (one merge
        round, counted with its candidate depth); COMM-all plans keep
        the whole union. Failed shards are counted as a partial
        answer.
        """
        shard_ids = sorted(responses)
        for shard_id in shard_ids:
            if _refused(responses[shard_id]):
                raise responses[shard_id]
        legs = {shard_id: self.absorb(plan, shard_id,
                                      responses[shard_id])
                for shard_id in shard_ids}
        if plan.spec.mode == "topk":
            outcome = merge_top_k(legs, plan.spec.k or 0)
            self.count("merge_rounds")
            self.count("merge_candidates", outcome.candidates)
            self.gauge("last_merge_depth", float(outcome.candidates))
        else:
            answered = [s for s in shard_ids if legs[s] is not None]
            outcome = MergeOutcome(
                communities=merge_all(legs[s] for s in answered),
                answered=answered,
                failed=[s for s in shard_ids if legs[s] is None])
        if outcome.failed:
            self.count("partial_results")
        self.count("shard_failures", len(outcome.failed))
        return outcome

    # ------------------------------------------------------------------
    # response assembly
    # ------------------------------------------------------------------
    def envelope(self, plan: QueryPlan,
                 communities: List[Community],
                 answered: int,
                 elapsed: Optional[float] = None) -> Dict[str, Any]:
        """The router's ``/query`` response envelope.

        Single-box fields (``count``/``communities``/``query``) plus
        the partial-result contract: ``shards_total`` is how many
        shards the query went to (every shard), ``shards_answered``
        how many delivered; ``partial`` flags any gap. Clients that
        cannot tolerate partial answers must check it — the status stays
        200. ``shards_cached`` lists the shards whose legs were served
        from their result caches (``cached: true`` downstream).
        """
        labels = plan.labels
        rendered = []
        for community in communities:
            entry = community_to_dict(community)
            if labels is not None:
                entry["labels"] = {
                    str(u): labels[str(u)] for u in community.nodes
                    if str(u) in labels}
            rendered.append(entry)
        total = len(plan.manifest.shards)
        envelope: Dict[str, Any] = {
            "count": len(rendered),
            "communities": rendered,
            "query": spec_to_dict(plan.spec),
            "shards_answered": answered,
            "shards_total": total,
            "partial": answered < total,
            "shards_cached": sorted(plan.cached_shards),
        }
        if elapsed is not None:
            envelope["elapsed_seconds"] = float(elapsed)
        return envelope

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def health_payload(self, manifest: RoutingManifest,
                       replica_sets: List[AsyncReplicaSet],
                       responses: Dict[Tuple[int, int], Any]
                       ) -> Dict[str, Any]:
        """``GET /healthz``: per-shard, per-replica rows + roll-up.

        ``responses`` maps ``(shard_id, replica_index)`` to a health
        dict or the error that made the replica unreachable. A
        replica row copies the ``shard`` its backend reports serving
        (the ``partition`` block of the backend's health). A shard
        is healthy when **any** replica answers ``ok`` on the
        manifest's expected snapshot; the fleet is ``ok`` only when
        every shard is healthy (a shard surviving on its last
        replica still rolls up ``ok`` — failover is the designed
        posture, coverage loss is not).
        """
        rows = []
        status = "ok"
        reachable = 0
        for replicas in replica_sets:
            shard_id = replicas.shard_id
            entry = manifest.shards[shard_id]
            replica_rows = []
            shard_ok = False
            shard_reachable = False
            for index, url in enumerate(replicas.urls):
                result = responses.get((shard_id, index))
                replica_row: Dict[str, Any] = {"url": url}
                if isinstance(result, dict):
                    shard_reachable = True
                    replica_row["status"] = result.get("status",
                                                       "ok")
                    replica_row["snapshot"] = result.get("snapshot")
                    replica_row["generation"] = \
                        result.get("generation")
                    partition = result.get("partition")
                    if isinstance(partition, dict):
                        # The shard the box says it serves, which an
                        # operator can check against the row's shard.
                        replica_row["shard"] = partition.get("shard")
                    if replica_row["status"] == "ok" \
                            and replica_row["snapshot"] \
                            == entry.snapshot_id:
                        shard_ok = True
                else:
                    replica_row["status"] = "unreachable"
                    replica_row["error"] = str(result)
                replica_rows.append(replica_row)
            if shard_reachable:
                reachable += 1
            # The shard-level row keeps the single-replica shape the
            # fleet tooling already parses, reported from the best
            # replica, plus the per-replica detail.
            best = next(
                (r for r in replica_rows
                 if r.get("status") == "ok"
                 and r.get("snapshot") == entry.snapshot_id),
                next((r for r in replica_rows
                      if r.get("status") != "unreachable"),
                     replica_rows[0]))
            row: Dict[str, Any] = {
                "shard": shard_id,
                "url": best["url"],
                "expected_snapshot": entry.snapshot_id,
                "status": best.get("status", "unreachable"),
                "replicas": replica_rows,
            }
            for field in ("snapshot", "generation", "error"):
                if field in best:
                    row[field] = best[field]
            if not shard_ok:
                status = "degraded"
                if row["status"] == "ok":
                    # Reachable but on the wrong artifact.
                    row["status"] = "degraded"
            rows.append(row)
        return {
            "status": status,
            "generation": manifest.generation,
            "shards_total": len(replica_sets),
            "shards_reachable": reachable,
            "shards": rows,
        }

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def render_metrics(self, replica_sets: List[AsyncReplicaSet]) -> str:
        """One Prometheus scrape of the router.

        ``repro_router_*_total`` counters (fan-out legs, merge rounds
        and candidate depth, partial results, shard failures,
        ownership violations, replica failovers, reloads/rollbacks),
        fleet gauges, identity
        rows per shard replica, and per-shard fan-out latency
        histograms under ``path="shard:NN"``.
        """
        manifest = self.capture()
        with self._lock:
            counters = {
                f"repro_router_{name}_total": value
                for name, value in self._counters.items()}
            gauges = {
                f"repro_router_{name}": value
                for name, value in self._gauges.items()}
        counters.setdefault("repro_router_failover_total", 0.0)
        counters.setdefault("repro_router_ownership_violations_total",
                            0.0)
        gauges["repro_router_shards"] = float(len(replica_sets))
        gauges["repro_router_replicas"] = float(
            sum(len(r.urls) for r in replica_sets))
        gauges["repro_router_manifest_nodes"] = float(
            manifest.total_nodes)
        infos: Dict[str, Any] = {
            "repro_router_manifest_info": {
                "generation": manifest.generation,
                "source_snapshot":
                    manifest.source_snapshot or "",
            },
            "repro_router_shard_info": [
                {
                    "shard": str(replicas.shard_id),
                    "url": url,
                    "active": str(url
                                  == replicas.active_url).lower(),
                    "snapshot_id":
                        manifest.shards[
                            replicas.shard_id].snapshot_id,
                }
                for replicas in replica_sets
                for url in replicas.urls],
        }
        return self.metrics.render(counters=counters, gauges=gauges,
                                   infos=infos)


# ----------------------------------------------------------------------
# the admin plane: verify-then-rollback fleet reload
# ----------------------------------------------------------------------
def reload_fleet(core: RouterCore,
                 fleet: List[List[ServiceClient]],
                 body: bytes) -> Dict[str, Any]:
    """``POST /admin/reload``: broadcast a manifest generation swap
    with rollback, optionally shipping snapshots cross-box.

    ``fleet[shard_id]`` lists one blocking client per replica of
    that shard. Re-reads ``routing.json`` (from the configured
    partition root or a ``path`` in the body), then walks every
    replica of every shard in order: record what it serves now, roll
    it onto the new manifest's shard snapshot, and verify it adopted
    the expected id. With ``{"transfer": true}`` the shard snapshot
    is first **pushed over the wire** into the replica's own store
    (checksum-verified section by section) and the reload addresses
    it by snapshot id — the cross-box path, requiring no shared
    filesystem. Any failure rolls every already-switched replica
    back to its recorded snapshot and leaves the router on the old
    manifest — the fleet is never left mixed-generation by a failed
    reload, matching the single-box PR 5 contract.
    """
    payload = _parse_body(body)
    source = payload.get("path") or core.root
    transfer = bool(payload.get("transfer", False))
    if source is None:
        raise BadRequest(
            "no partition root configured; start the router "
            "with one or supply 'path' in the body")
    root = Path(source)
    try:
        new_manifest = RoutingManifest.load(root)
    except SnapshotFormatError as error:
        # A manifest from an earlier release, or not one at all.
        raise BadRequest(str(error))
    if len(new_manifest.shards) != len(fleet):
        raise BadRequest(
            f"new manifest names {len(new_manifest.shards)} "
            f"shards; this router fronts {len(fleet)}")
    old_manifest = core.capture()
    if new_manifest.generation == old_manifest.generation:
        return {"reloaded": False,
                "generation": old_manifest.generation,
                "shards": len(fleet)}
    previous: List[Tuple[int, int, Optional[str]]] = []
    try:
        for shard_id, clients in enumerate(fleet):
            entry = new_manifest.shards[shard_id]
            expected = entry.snapshot_id
            snapshot_dir = root / entry.store / expected
            for index, client in enumerate(clients):
                before = client.health().get("snapshot")
                # Recorded before the reload is issued: a replica
                # that adopts the wrong snapshot (and fails
                # verification below) must still be rolled back.
                previous.append((shard_id, index, before))
                if transfer:
                    push_snapshot(client, snapshot_dir)
                    reply = client.admin_reload(snapshot=expected)
                else:
                    reply = client.admin_reload(
                        path=str(root / entry.store))
                adopted = reply.get("snapshot")
                if adopted != expected:
                    raise ServiceError(
                        f"shard {shard_id} replica "
                        f"{client.base_url} adopted "
                        f"{adopted!r}, manifest expects "
                        f"{expected!r}")
    except Exception as error:  # noqa: BLE001 — any failed leg
        # triggers the fleet-wide rollback.
        core.count("reload_rollbacks")
        _rollback(core, old_manifest, fleet, previous)
        raise ServiceError(
            f"sharded reload failed and was rolled back: "
            f"{error}")
    core.adopt(new_manifest, root)
    core.count("reloads")
    return {
        "reloaded": True,
        "generation": new_manifest.generation,
        "shards": len(fleet),
        "transfer": transfer,
    }


def _rollback(core: RouterCore, old_manifest: RoutingManifest,
              fleet: List[List[ServiceClient]],
              previous: List[Tuple[int, int, Optional[str]]]
              ) -> None:
    """Point already-reloaded replicas back at their old snapshots.

    Best effort: reload by snapshot id first (works cross-box — the
    old artifact is still in the replica's store), falling back to a
    shared-filesystem path when the router has a partition root. A
    replica that cannot be rolled back (crashed mid-reload) is left
    for its own watchdog; the router still refuses to adopt the new
    manifest, so /healthz shows the mismatch against the old
    expectations.
    """
    for shard_id, index, snapshot_id in previous:
        if snapshot_id is None:
            continue
        client = fleet[shard_id][index]
        try:
            client.admin_reload(snapshot=snapshot_id)
            continue
        except ServiceError:
            pass
        store = old_manifest.store_path(
            core.root, shard_id) if core.root is not None else None
        if store is None:
            continue
        try:
            client.admin_reload(path=str(store / snapshot_id))
        except ServiceError:
            continue
