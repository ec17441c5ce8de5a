"""Answer check against an in-process reference ``QueryEngine``.

The reference serves the same snapshot (for a fleet: the unsharded
one) with both caches off: a disabled result cache, and a projection
cache emptied before every reference query. References are computed
once per invocation, after the timed runs, and only for the keys the
runs sent. Each reference ranking is pulled past the deepest position
asked for until the cost rises, so the whole equal-cost tie group at
the boundary is known.

The rule (the k-boundary tie rule): every served entry's cost equals
the reference cost at its rank, every served core belongs to the
reference's set of cores at that cost, and no core is served twice.
Within a tie group that lies wholly inside the served slice that
forces the exact set; at a slice boundary any subset of the tied
cores is accepted.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: ``(cost, core)`` pairs in rank order, plus whether the stream ran
#: out (so a short answer is complete).
Ranking = Tuple[List[Tuple[float, Tuple[int, ...]]], bool]

_ENGINE = None


def open_reference(snapshot_path: str):
    """An engine over ``snapshot_path`` with both caches off."""
    from repro.engine.engine import QueryEngine

    return QueryEngine.from_snapshot(snapshot_path, mode="mmap",
                                     result_cache_bytes=0,
                                     cache_capacity=1)


def ranking(engine: Any, keywords: Sequence[str], rmax: float,
            depth: int) -> Ranking:
    """The reference top-``depth`` plus the boundary tie group."""
    engine.cache.invalidate()
    stream = engine.top_k_stream(list(keywords), rmax)
    out = [(c.cost, tuple(c.core)) for c in stream.take(depth)]
    if len(out) < depth:
        return out, True
    boundary = out[-1][0]
    while True:
        more = stream.take(1)
        if not more:
            return out, True
        if more[0].cost > boundary:
            return out, False
        out.append((more[0].cost, tuple(more[0].core)))


def _init(snapshot_path: str) -> None:
    global _ENGINE
    _ENGINE = open_reference(snapshot_path)


def _one(job: Tuple[Tuple[str, ...], float, int]) -> Ranking:
    keywords, rmax, depth = job
    return ranking(_ENGINE, keywords, rmax, depth)


def rankings(snapshot_path: str,
             jobs: List[Tuple[Tuple[str, ...], float, int]],
             processes: int = 1) -> Dict[Tuple, Ranking]:
    """References for ``(keywords, rmax, depth)`` jobs, keyed by
    ``(keywords, rmax)``; spread over ``processes`` spawned workers
    when there is enough work to pay for them."""
    if processes <= 1 or len(jobs) < 8:
        engine = open_reference(snapshot_path)
        done = [ranking(engine, *job) for job in jobs]
    else:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(processes, mp_context=context,
                                 initializer=_init,
                                 initargs=(snapshot_path,)) as pool:
            done = list(pool.map(_one, jobs, chunksize=1))
    return {(job[0], job[1]): result for job, result in zip(jobs, done)}


def served(communities: List[Dict[str, Any]]
           ) -> List[Tuple[float, Tuple[int, ...]]]:
    return [(c["cost"], tuple(c["core"])) for c in communities]


def compare(got: List[Tuple[float, Tuple[int, ...]]], reference: Ranking,
            offset: int, k: int) -> Optional[str]:
    """``None`` when ``got`` is a valid ranks ``offset..offset+k-1``
    slice of ``reference``; otherwise what is wrong."""
    entries, complete = reference
    available = len(entries) - offset if complete else None
    want = k if available is None else max(0, min(k, available))
    if len(got) != want:
        return f"{len(got)} answers at offset {offset}, expected {want}"
    ties: Dict[float, set] = {}
    for cost, core in entries:
        ties.setdefault(cost, set()).add(core)
    seen = set()
    for rank, (cost, core) in enumerate(got, start=offset):
        if cost != entries[rank][0]:
            return (f"rank {rank}: cost {cost!r}, expected "
                    f"{entries[rank][0]!r}")
        if core not in ties.get(cost, ()):
            return f"rank {rank}: core {list(core)} not in tie group"
        if core in seen:
            return f"rank {rank}: core {list(core)} served twice"
        seen.add(core)
    return None
