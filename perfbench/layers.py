"""Per-layer metrics of a traced run, from spans, scrapes and ops.

A layer's time is its spans' *self time*: a span's duration minus the
part of it its child spans cover (the union of their intervals). Time
metrics are normalised per ``/query`` request unless WORKLOADS.md says
otherwise; counts and ratios come from ``/metrics`` and ``/healthz``
deltas over the measured window. BENCHMARK.json lists the metrics and
their units; every one is reported on every workload, and a layer the
workload never enters reads 0.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple


class Span:
    """One recorded span, linked to the spans it caused."""

    __slots__ = ("id", "parent", "rid", "name", "start", "end", "attrs",
                 "children")

    def __init__(self, row: List[Any]) -> None:
        (self.id, self.parent, self.rid, self.name, self.start,
         self.end, self.attrs) = row
        self.attrs = self.attrs or {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the union of child intervals inside it."""
        covered = 0.0
        cursor = self.start
        for lo, hi in sorted((max(c.start, self.start),
                              min(c.end, self.end))
                             for c in self.children):
            if hi <= cursor:
                continue
            covered += hi - max(lo, cursor)
            cursor = hi
        return self.duration - covered


def load_spans(span_dir: Path) -> List[Span]:
    """Every span every traced process wrote, children linked."""
    spans: List[Span] = []
    for path in sorted(span_dir.glob("spans-*.json")):
        dump = json.loads(path.read_text())
        by_id: Dict[int, Span] = {}
        for row in dump["spans"]:
            span = Span(row)
            by_id[span.id] = span
            spans.append(span)
        for span in by_id.values():
            parent = by_id.get(span.parent)
            if parent is not None:
                parent.children.append(span)
    return spans


_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_metrics(text: bytes) -> Dict[str, float]:
    """Prometheus text -> ``{"name{labels}": value}``."""
    out: Dict[str, float] = {}
    for line in text.decode().splitlines():
        match = _SAMPLE.match(line.strip())
        if match and not line.startswith("#"):
            out[match.group(1) + (match.group(2) or "")] = \
                float(match.group(3))
    return out


def metric_delta(before: List[Dict[str, float]],
                 after: List[Dict[str, float]], name: str) -> float:
    """Summed change of one series across every scraped process."""
    return sum(a.get(name, 0.0) - b.get(name, 0.0)
               for b, a in zip(before, after))


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _p95(values: List[float]) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(0.95 * len(values)))]


def per_layer(spans: List[Span], query_ops: List[Any],
              window: Tuple[float, float],
              before: List[Dict[str, float]],
              after: List[Dict[str, float]],
              deltas_acked: int, compaction: Dict[str, Any],
              halo_share: float) -> Dict[str, float]:
    """The layer table for one traced run (``trace.*`` excluded)."""
    lo, hi = window
    inside = [s for s in spans if lo <= s.start <= hi]
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in inside:
        named[span.name].append(span)
    queries = max(1, len(query_ops))
    per_query = 1000.0 / queries
    delta = lambda name: metric_delta(before, after, name)  # noqa: E731
    out: Dict[str, float] = {}

    # service: server-side /query requests (single box: one per
    # client query; fleet: one per shard leg)
    handles = [child for span in named["service.dispatch"]
               if span.attrs.get("path") == "/query"
               for child in span.children
               if child.name == "service.handle"]
    by_rid = {s.rid: s for s in inside
              if s.name in ("service.handle", "router.handle")}
    gaps = [op.round_trip - by_rid[op.rid].duration
            for op in query_ops if op.rid in by_rid]
    out["service.http_ms"] = 1000.0 * _mean(gaps)
    out["service.handle_ms"] = 1000.0 * _mean(h.self_time
                                              for h in handles)
    out["service.admission_wait_ms"] = 1000.0 * _p95([
        c.duration for h in handles for c in h.children
        if c.name == "service.admission_wait"])
    out["service.serialize_ms"] = 1000.0 * _mean(
        sum(c.duration for c in h.children
            if c.name == "service.serialize") for h in handles)
    out["service.session_next_ms"] = 1000.0 * _mean(
        s.duration for s in named["service.session_next"])
    out["service.shed"] = sum(
        delta(f'repro_requests_total{{path="{path}",status="{code}"}}')
        for path in ("/query", "/sessions", "/sessions/{id}/next",
                     "/sessions/{id}", "/admin/delta")
        for code in (429, 503))

    # parallel
    executes = named["parallel.execute"]
    out["parallel.dispatch_ms"] = 1000.0 * _mean(
        s.duration - s.attrs.get("worker_s", 0.0) for s in executes)
    out["parallel.result_bytes"] = _mean(
        s.attrs.get("bytes", 0) for s in executes)
    out["parallel.broadcast_ms"] = 1000.0 * _mean(
        s.duration for s in named["parallel.broadcast"])
    out["parallel.respawns"] = delta("repro_pool_respawns_total")

    # engine
    def event(name: str) -> float:
        return delta(f'repro_query_events_total{{event="{name}"}}')

    hits, misses = event("result_cache_hits"), event(
        "result_cache_misses")
    out["engine.result_cache.hit_ratio"] = \
        hits / (hits + misses) if hits + misses else 0.0
    out["engine.result_cache.extensions"] = event(
        "result_cache_extensions")
    p_hits, p_misses = event("projection_cache_hits"), event(
        "projection_cache_misses")
    out["engine.projection_cache.hit_ratio"] = \
        p_hits / (p_hits + p_misses) if p_hits + p_misses else 0.0
    for stage in ("resolve", "project", "enumerate", "translate"):
        out[f"engine.{stage}_ms"] = per_query * delta(
            f'repro_stage_seconds_total{{stage="{stage}"}}')

    # core
    def self_sum(name: str) -> float:
        return sum(s.self_time for s in named[name])

    projections = named["core.projection"]
    out["core.projection_ms"] = per_query * self_sum("core.projection")
    out["core.projected_share"] = _mean(
        s.attrs["nodes"] / s.attrs["total"] for s in projections
        if s.attrs.get("total"))
    out["core.neighbor_ms"] = per_query * self_sum("core.neighbor")
    out["core.bestcore_ms"] = per_query * self_sum("core.bestcore")
    out["core.getcommunity_ms"] = per_query * self_sum(
        "core.getcommunity")
    out["core.communities_per_query"] = event("communities") / queries

    # graph: the two bounded_dijkstra call sites, kept apart
    for site, per in (("query", queries),
                      ("maintenance", max(1, deltas_acked))):
        calls = named[f"graph.dijkstra.{site}"]
        out[f"graph.dijkstra_calls.{site}"] = len(calls) / per
        out[f"graph.dijkstra_ms.{site}"] = 1000.0 * self_sum(
            f"graph.dijkstra.{site}") / per
        out[f"graph.dijkstra_settled.{site}"] = _mean(
            s.attrs.get("settled", 0) for s in calls)
        if site == "query":
            out["graph.dijkstra_repeat_share.query"] = _mean(
                1.0 if s.attrs.get("repeat") else 0.0 for s in calls)

    # text: per delta per process
    out["text.apply_delta_ms"] = 1000.0 * _mean(
        s.duration for s in named["text.apply_delta"])
    out["text.update_index_ms"] = 1000.0 * _mean(
        s.duration for s in named["text.update_index"])
    out["text.extend_graph_ms"] = 1000.0 * _mean(
        s.duration for s in named["text.extend_graph"])
    out["text.keywords_recomputed"] = _mean(
        s.attrs.get("keywords", 0)
        for s in named["text.affected_keywords"])

    # wal
    appends = named["wal.append"]
    out["wal.append_ms"] = 1000.0 * _mean(s.duration for s in appends)
    out["wal.bytes_per_delta"] = _mean(s.attrs.get("bytes", 0)
                                       for s in appends)
    worked = [s for s in named["wal.compact"]
              if any(c.name == "snapshot.publish" for c in s.children)]
    out["wal.compactions"] = float(compaction.get("compactions", 0))
    out["wal.compact_ms"] = 1000.0 * _mean(s.duration for s in worked)
    out["wal.compact_swap_ms"] = 1000.0 * _mean(
        sum(c.duration for c in s.children
            if c.name in ("wal.compact_load", "wal.compact_replay"))
        for s in worked)
    out["wal.compact_failures"] = float(compaction.get("failures", 0))

    # snapshot: start-up loads (before the window) and publishes
    out["snapshot.load_ms"] = 1000.0 * _mean(
        s.duration for s in spans
        if s.name == "snapshot.load" and s.start < lo)
    out["snapshot.publish_ms"] = 1000.0 * _mean(
        s.duration for s in named["snapshot.publish"])

    # shard
    answers = sum(len(op.body.get("communities", []))
                  for op in query_ops if op.ok)
    out["shard.legs_per_query"] = delta(
        "repro_router_fanout_legs_total") / queries
    out["shard.merge_rounds_per_query"] = delta(
        "repro_router_merge_rounds_total") / queries
    candidates = delta("repro_router_merge_candidates_total")
    out["shard.overfetch_ratio"] = candidates / answers if answers \
        else 0.0
    out["shard.leg_ms"] = 1000.0 * _mean(
        s.duration for s in named["shard.leg"])
    out["shard.router_ms"] = 1000.0 * _mean(
        s.self_time for s in named["router.handle"]
        if s.rid in {op.rid for op in query_ops})
    out["shard.halo_share"] = halo_share
    return out


def uncovered_share(spans: List[Span], query_ops: List[Any]) -> float:
    """Mean share of a ``/query`` round trip outside every server span
    (the request's outermost span: dispatch, or the router's)."""
    roots = {s.rid: s for s in spans
             if s.name in ("service.dispatch", "router.handle")}
    shares = [max(0.0, op.round_trip - roots[op.rid].duration)
              / op.round_trip
              for op in query_ops if op.rid in roots and op.round_trip]
    return _mean(shares)


def halo_share(routing_json: Optional[Path]) -> float:
    """Σ shard nodes ÷ global nodes (0 for a single box)."""
    if routing_json is None:
        return 0.0
    manifest = json.loads(routing_json.read_text())
    total = sum(len(shard["node_map"]) for shard in manifest["shards"])
    return total / manifest["total_nodes"]
