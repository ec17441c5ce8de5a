"""Multi-core scaling: flat Dijkstra kernel and worker-pool QPS.

Two acceptance measurements for the parallel execution work, both on
the bench-scale DBLP bundle:

* ``test_flat_kernel_vs_heap_on_pdall_trace`` — records the *actual*
  trace of ``bounded_dijkstra`` calls a PDall sweep issues (the Fig.
  9/11 hot loop), then replays that trace under the production kernel
  (flat arrays + duplicate-search memo) and under the dict+heap
  reference. The replayed workload is identical call for call, so the
  ratio isolates the kernel. The bar is >= 1.3x; the memo is most of
  the win because ~70% of the trace are exact repeats (GetCommunity
  re-searches each knode per community);
* ``test_aggregate_qps_workers_4_vs_1`` — aggregate queries/second of
  one batch fanned over a 4-process pool vs the same batch through a
  1-process pool, both serving the same published snapshot. Asserted
  (>= 2.5x) only on machines with >= 4 cores; the numbers are always
  recorded in ``extra_info`` so a single-core CI run still documents
  itself.

Medians are taken over interleaved rounds (A, B, A, B, ...) so
machine noise hits both sides equally.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from importlib import import_module

import pytest

from repro.bench.figures import ALL_CAPS
from repro.bench.harness import measure_all
from repro.engine.spec import QuerySpec
from repro.graph import dijkstra as dijkstra_module
from repro.graph.dijkstra import SearchMemo, heap_bounded_dijkstra
from repro.parallel import ParallelQueryEngine
from repro.snapshot import SnapshotStore

#: Interleaved timing rounds per side.
ROUNDS = 5

#: Enumeration cap for the trace-capture cells (the bench harness cap).
CAP = ALL_CAPS["bench"]

#: Acceptance bars.
KERNEL_SPEEDUP_FLOOR = 1.3
QPS_SPEEDUP_FLOOR = 2.5


def capture_pdall_trace(bundle, cells):
    """Record every ``bounded_dijkstra`` call of real PDall runs.

    Patches the entry point inside the three PDall hot-path modules
    (neighbor / getcommunity / projection), runs each ``(keywords,
    rmax)`` cell through the standard harness, and returns the call
    trace as ``(adjacency, seeds, radius)`` triples with seeds already
    normalized — ready to replay against either kernel.
    """
    trace = []
    real = dijkstra_module.bounded_dijkstra

    def recorder(adjacency, sources, radius=math.inf):
        seeds = tuple(dijkstra_module._normalize_seeds(sources))
        trace.append((adjacency, seeds, radius))
        return real(adjacency, seeds, radius)

    # import_module, because repro.core re-exports functions that
    # shadow these submodule names.
    patched = tuple(import_module(f"repro.core.{name}")
                    for name in ("neighbor", "getcommunity",
                                 "projection"))
    saved = [module.bounded_dijkstra for module in patched]
    try:
        for module in patched:
            module.bounded_dijkstra = recorder
        for keywords, rmax in cells:
            measure_all(bundle.search, bundle.label, keywords, rmax,
                        "pd", max_communities=CAP,
                        measure_memory=False)
    finally:
        for module, original in zip(patched, saved):
            module.bounded_dijkstra = original
    return trace


def replay_production(trace):
    """One pass of the trace through the memoized flat kernel.

    The thread-local memo is reset first, so every pass pays the same
    miss-then-hit profile a fresh worker process would.
    """
    dijkstra_module._scratch_local.memo = SearchMemo()
    run = dijkstra_module.bounded_dijkstra
    for adjacency, seeds, radius in trace:
        run(adjacency, seeds, radius)


def replay_heap(trace):
    """One pass of the trace through the dict+heap reference kernel."""
    for adjacency, seeds, radius in trace:
        heap_bounded_dijkstra(adjacency, seeds, radius)


def test_flat_kernel_vs_heap_on_pdall_trace(benchmark, dblp):
    params = dblp.params
    cells = [
        (params.query(), params.default_rmax),
        (params.query(l=5), params.default_rmax),
    ]
    trace = capture_pdall_trace(dblp, cells)
    assert trace, "PDall cells issued no Dijkstra calls"
    distinct = len({(id(adjacency), seeds, radius)
                    for adjacency, seeds, radius in trace})

    heap_times, production_times = [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        replay_heap(trace)
        heap_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        replay_production(trace)
        production_times.append(time.perf_counter() - start)

    heap_median = statistics.median(heap_times)
    production_median = statistics.median(production_times)
    speedup = heap_median / production_median
    benchmark.pedantic(replay_production, args=(trace,), rounds=1,
                       iterations=1)
    benchmark.extra_info.update({
        "trace_calls": len(trace),
        "distinct_calls": distinct,
        "duplicate_fraction": round(1 - distinct / len(trace), 3),
        "heap_median_ms": round(heap_median * 1e3, 2),
        "production_median_ms": round(production_median * 1e3, 2),
        "kernel_speedup": round(speedup, 3),
    })
    assert speedup >= KERNEL_SPEEDUP_FLOOR, (
        f"memoized flat kernel only {speedup:.2f}x over the heap "
        f"reference on the PDall trace (floor "
        f"{KERNEL_SPEEDUP_FLOOR}x)")


@pytest.fixture(scope="module")
def dblp_snapshot(tmp_path_factory, dblp):
    """The bench DBLP bundle published as an immutable snapshot."""
    root = tmp_path_factory.mktemp("scaling-store")
    SnapshotStore(root).publish(
        dblp.dbg, dblp.search.engine.index,
        provenance={"dataset": dblp.label, "purpose": "scaling"})
    return root


def batch_specs(params):
    """A mixed COMM-all workload across the paper's sweep axes.

    16 distinct queries — a multiple of both pool sizes, so the
    round-robin dispatch assigns every worker the same slice each
    round and warm rounds stay warm (each worker's projection cache
    holds exactly its own keys).
    """
    specs = [QuerySpec.comm_all(params.query(kwf=kwf),
                                params.default_rmax)
             for kwf in params.kwf_values]
    specs += [QuerySpec.comm_all(params.query(l=l),
                                 params.default_rmax)
              for l in params.l_values]
    specs += [QuerySpec.comm_all(params.query(), rmax)
              for rmax in params.rmax_values]
    specs += [QuerySpec.comm_all(params.query(l=2),
                                 params.rmax_values[0])]
    assert len(specs) % 4 == 0
    return specs


def timed_batch(engine, specs):
    """Seconds for one ``execute_batch`` pass."""
    start = time.perf_counter()
    engine.execute_batch(specs)
    return time.perf_counter() - start


def test_aggregate_qps_workers_4_vs_1(benchmark, dblp,
                                      dblp_snapshot):
    specs = batch_specs(dblp.params)
    cores = os.cpu_count() or 1
    # Result caches off: a pool server's parent answers repeats from
    # its own cache without a pool task, so a cached round would time
    # the parent alone. Every round enumerates on the workers.
    with ParallelQueryEngine(dblp_snapshot, workers=1,
                             result_cache_bytes=0) as single, \
            ParallelQueryEngine(dblp_snapshot, workers=4,
                                result_cache_bytes=0) as pooled:
        # First pass warms each worker's projection cache (cold
        # Algorithm 6 runs would otherwise dominate round 1 only).
        timed_batch(single, specs)
        timed_batch(pooled, specs)
        single_times, pooled_times = [], []
        for _ in range(ROUNDS):
            single_times.append(timed_batch(single, specs))
            pooled_times.append(timed_batch(pooled, specs))
        benchmark.pedantic(timed_batch, args=(pooled, specs),
                           rounds=1, iterations=1)
    single_qps = len(specs) / statistics.median(single_times)
    pooled_qps = len(specs) / statistics.median(pooled_times)
    speedup = pooled_qps / single_qps
    benchmark.extra_info.update({
        "batch_queries": len(specs),
        "cpu_cores": cores,
        "qps_workers_1": round(single_qps, 1),
        "qps_workers_4": round(pooled_qps, 1),
        "qps_speedup": round(speedup, 3),
    })
    if cores >= 4:
        assert speedup >= QPS_SPEEDUP_FLOOR, (
            f"4-worker pool only {speedup:.2f}x the 1-worker QPS on "
            f"a {cores}-core machine (floor {QPS_SPEEDUP_FLOOR}x)")
