"""perfbench: one serving benchmark for the whole stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot-read --seed 1 \
        --seconds 15 --trace 0

Starts the real servers as subprocesses (``python -m repro serve`` /
``serve-router``) on bench-scale snapshots built from
``repro.datasets``, drives one workload from this process (at most two
threads, two keep-alive connections), checks every answer against an
in-process reference engine, and prints each metric with its unit.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace
0``; with ``--trace 1`` the per-layer table of a traced run (servers
started through ``launch.py``), plus tracing overhead against an
untraced run of the same requests. Workloads and their rationale:
``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import check
import fleet as fl
import layers
import load

#: Server launches per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Query arrivals per second (open loop): Poisson on hot-read, evenly
#: spaced on fleet-route and for the ingest-mix reads.
HOT_RATE = 10.0
FLEET_RATE = 8.0
INGEST_READ_RATE = 5.0
#: Seconds between delta sends (the first is due after half a
#: second), and the compactor's interval.
DELTA_PERIOD = 5.0
COMPACT_INTERVAL = 2.0
SESSION_SHARE = 0.15
#: A run is invalid when the generator's lateness trends up by more
#: than this many seconds per second of run (a growing backlog).
BACKLOG_GROWTH = 0.2
HOT_PAIRS = 80
ZIPF_S = 1.1
#: The hot-key catalogue is drawn once from this constant, so every run
#: asks the same keys (the same mix of costs and merge rounds);
#: ``--seed`` draws the traffic over them.
CATALOGUE_SEED = 0
KS = (10, 20, 50)
LS = (2, 3, 4)
DBLP_RMAX = (4.0, 5.0, 6.0, 7.0, 8.0)
IMDB_RMAX = (9.0, 10.0, 11.0, 12.0, 13.0)
SESSION_PAGES = 3
PAGE = 10


def bands() -> List[Tuple[str, ...]]:
    from repro.datasets.vocab import BENCH_BANDS

    return [band.keywords for band in BENCH_BANDS]


Key = Tuple[Tuple[str, ...], float]


# ----------------------------------------------------------------------
# request mixes
# ----------------------------------------------------------------------
def query_task(key: Key, k: int) -> load.Task:
    keywords, rmax = key

    def run(conn: load.Connection, due: float) -> List[load.Op]:
        return [conn.call("query", "POST", "/query",
                          {"keywords": list(keywords), "rmax": rmax,
                           "k": k}, due=due, key=key, k=k)]

    return run


def session_task(key: Key) -> load.Task:
    """Create, ``SESSION_PAGES`` × next(``PAGE``), close."""
    keywords, rmax = key

    def run(conn: load.Connection, due: float) -> List[load.Op]:
        opened = conn.call("session_create", "POST", "/sessions",
                           {"keywords": list(keywords), "rmax": rmax},
                           due=due, key=key)
        ops = [opened]
        if not opened.ok:
            return ops
        sid = opened.body["session"]
        for page in range(SESSION_PAGES):
            ops.append(conn.call("session_next", "POST",
                                 f"/sessions/{sid}/next", {"k": PAGE},
                                 key=key, offset=page * PAGE,
                                 session=sid))
        ops.append(conn.call("session_close", "DELETE",
                             f"/sessions/{sid}"))
        return ops

    return run


class HotMix:
    """A few hundred keys drawn Zipf(≈1.1): ``HOT_PAIRS`` DBLP
    (keywords, Rmax) pairs × k ∈ {10, 20, 50}, so requests repeat,
    slice and extend cached prefixes. The catalogue is the same for
    every seed (each rank's band and keywords come from
    ``CATALOGUE_SEED``), so the popular head costs the same from run
    to run; the seed draws the arrivals and the keys they ask."""

    def __init__(self) -> None:
        rng = random.Random(CATALOGUE_SEED)
        shapes = [(l, rmax) for rmax in DBLP_RMAX for l in LS]
        used = set()
        self.pairs = []
        for rank in range(HOT_PAIRS):
            l, rmax = shapes[rank % len(shapes)]
            while True:
                band = rng.choice(bands())
                pair = (tuple(sorted(rng.sample(band, l))), rmax)
                if pair not in used:
                    break
            used.add(pair)
            self.pairs.append(pair)
        self.keys = [(self.pairs[rank % HOT_PAIRS], KS[rank % len(KS)])
                     for rank in range(HOT_PAIRS * len(KS))]
        self.weights = [1.0 / (rank + 1) ** ZIPF_S
                        for rank in range(len(self.keys))]

    def draw(self, rng: random.Random) -> Tuple[Key, int]:
        return rng.choices(self.keys, self.weights)[0]

    def schedule(self, rng: random.Random, rate: float, seconds: float,
                 sessions: float = 0.0, poisson: bool = True
                 ) -> List[Tuple[float, load.Task]]:
        """``rate × seconds`` arrivals, Poisson (conditioned on their
        count: uniform random offsets) or evenly spaced; exactly
        ``round(sessions × count)`` of them open a session."""
        count = round(rate * seconds)
        offsets = (sorted(rng.uniform(0.0, seconds)
                          for _ in range(count)) if poisson
                   else [(i + 0.5) / rate for i in range(count)])
        opens = set(rng.sample(range(count), round(sessions * count)))
        plan = []
        for index, offset in enumerate(offsets):
            pair, k = self.draw(rng)
            task = (session_task(pair) if index in opens
                    else query_task(pair, k))
            plan.append((offset, task))
        return plan


def cold_keys(rng: random.Random, count: int) -> List[Tuple[Key, int]]:
    """Distinct IMDB keys over the (band, Rmax, l, k) grid: the grid
    is walked in one fixed order, the same for every seed, so every
    run asks the same mix of query shapes; the seed draws each shape's
    keywords from its band without replacement."""
    grid = [(band, rmax, l, k) for band in range(len(bands()))
            for rmax in IMDB_RMAX for l in LS for k in KS]
    random.Random(0).shuffle(grid)
    pools: Dict[Tuple[int, float, int], List[Tuple[str, ...]]] = {}
    keys: List[Tuple[Key, int]] = []
    for band, rmax, l, k in itertools.islice(itertools.cycle(grid),
                                             count):
        pool = pools.get((band, rmax, l))
        if pool is None:
            pool = list(itertools.combinations(bands()[band], l))
            rng.shuffle(pool)
            pools[(band, rmax, l)] = pool
        keys.append(((pool.pop(), rmax), k))
    return keys


class DeltaWriter:
    """``POST /admin/delta`` on a fixed schedule. Each delta is one new
    paper tuple: planted keywords of one band plus filler words, and
    1–3 links (an edge each way) to existing nodes that carry the same
    band's keywords. Node ids are dense, so the client names the new
    id: the served node count plus the deltas acknowledged so far."""

    FILLER = ("analysis", "data", "model", "search", "system", "query")

    def __init__(self, rng: random.Random, base_nodes: int,
                 anchors: Dict[str, List[int]], count: int) -> None:
        self.base_nodes = base_nodes
        self.acked: List[Tuple[Dict[str, Any], load.Op]] = []
        self.plans = []
        for index in range(count):
            band = rng.choice(bands())
            planted = rng.sample(band, rng.choice((1, 2)))
            words = planted + rng.sample(self.FILLER, 2)
            targets = sorted({rng.choice(anchors[kw]) for kw in planted
                              for _ in range(rng.choice((1, 2, 3)))})
            self.plans.append((words, targets[:3]))

    def task(self, index: int) -> load.Task:
        words, targets = self.plans[index]

        def run(conn: load.Connection, due: float) -> List[load.Op]:
            new_id = self.base_nodes + len(self.acked)
            payload = {
                "nodes": [{"id": new_id, "keywords": list(words),
                           "label": f"bench paper {index}"}],
                "edges": [edge for node in targets
                          for edge in ([new_id, node, 1.0],
                                       [node, new_id, 1.0])],
            }
            op = conn.call("delta", "POST", "/admin/delta", payload,
                           due=due)
            if op.ok:
                self.acked.append((payload, op))
            return [op]

        return run


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def pool_ready(store: Path, workers: int):
    expected = fl.snapshot_dir(store).name

    def ready(health: Dict[str, Any]) -> bool:
        return (health.get("snapshot") == expected
                and health.get("pool_workers") == workers
                and health.get("pool_alive") == workers)

    return ready


def batch_warm(conn: load.Connection, pairs: List[Key],
               repeat: int) -> None:
    """Compute every pair at the deepest k into the result caches:
    ``repeat`` consecutive copies reach every round-robin worker."""
    for start in range(0, len(pairs), 10):
        queries = [{"keywords": list(kws), "rmax": rmax, "k": max(KS)}
                   for kws, rmax in pairs[start:start + 10]
                   for _ in range(repeat)]
        op = conn.call("warm", "POST", "/batch", {"queries": queries})
        if not op.ok:
            raise fl.BenchError(f"warm-up batch failed: {op.status} "
                                f"{op.error or op.body}")


class Workload:
    name = ""
    dataset = "dblp"

    def __init__(self, data: Dict[str, Path], seed: int,
                 seconds: float) -> None:
        self.data = data
        self.seed = seed
        self.seconds = seconds
        self.routing: Optional[Path] = None

    def launch(self, fleet: fl.Fleet, run_dir: Path,
               span_dir: Optional[Path], launch: int) -> None:
        """Start this workload's servers into ``fleet``; return once
        every one is healthy."""
        store = self.data[self.dataset]
        fleet.front = fleet.start(f"serve{launch}", [
            "serve", "--snapshot", str(store), "--workers", "2"],
            run_dir, span_dir)
        fleet.front.wait_healthy(pool_ready(store, 2),
                                 time.perf_counter() + fl.START_TIMEOUT)

    def warm(self, fleet: fl.Fleet) -> None:
        raise NotImplementedError

    def drive(self, fleet: fl.Fleet) -> load.LoopResult:
        raise NotImplementedError


class HotRead(Workload):
    name = "hot-read"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.mix = HotMix()
        self.plan = self.mix.schedule(random.Random(self.seed), HOT_RATE,
                                      self.seconds,
                                      sessions=SESSION_SHARE)

    def warm(self, fleet: fl.Fleet) -> None:
        batch_warm(load.Connection(fleet.front.host, fleet.front.port),
                   self.mix.pairs, repeat=2)

    def drive(self, fleet: fl.Fleet) -> load.LoopResult:
        conns = [load.Connection(fleet.front.host, fleet.front.port)
                 for _ in range(2)]
        return load.open_loop([(conns, self.plan)], self.seconds)


class ColdTopK(Workload):
    name = "cold-topk"
    dataset = "imdb"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        keys = cold_keys(random.Random(self.seed), 402)
        self.warm_keys, self.keys = keys[:2], keys[2:]

    def warm(self, fleet: fl.Fleet) -> None:
        conn = load.Connection(fleet.front.host, fleet.front.port)
        for key, k in self.warm_keys:
            op = query_task(key, k)(conn, time.perf_counter())[0]
            if not op.ok:
                raise fl.BenchError(f"warm-up query failed: {op.status}")

    def drive(self, fleet: fl.Fleet) -> load.LoopResult:
        conns = [load.Connection(fleet.front.host, fleet.front.port)
                 for _ in range(2)]
        tasks = iter([query_task(key, k) for key, k in self.keys])
        return load.closed_loop(conns, tasks, self.seconds)


class IngestMix(Workload):
    name = "ingest-mix"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.mix = HotMix()
        self.reads = self.mix.schedule(random.Random(self.seed),
                                       INGEST_READ_RATE, self.seconds,
                                       poisson=False)
        self.writer: Optional[DeltaWriter] = None

    def launch(self, fleet: fl.Fleet, run_dir: Path,
               span_dir: Optional[Path], launch: int) -> None:
        store = run_dir / f"store{launch}"
        wal = run_dir / f"wal{launch}"
        shutil.rmtree(store, ignore_errors=True)
        shutil.rmtree(wal, ignore_errors=True)
        shutil.copytree(self.data["dblp"], store)
        wal.mkdir()
        fleet.front = fleet.start(f"serve{launch}", [
            "serve", "--snapshot", str(store), "--workers", "2",
            "--wal", str(wal / "deltas.wal"),
            "--compact-interval", str(COMPACT_INTERVAL)],
            run_dir, span_dir)
        fleet.front.wait_healthy(pool_ready(store, 2),
                                 time.perf_counter() + fl.START_TIMEOUT)

    def warm(self, fleet: fl.Fleet) -> None:
        batch_warm(load.Connection(fleet.front.host, fleet.front.port),
                   self.mix.pairs, repeat=2)

    def drive(self, fleet: fl.Fleet) -> load.LoopResult:
        reference = anchors_of(self.data["dblp"])
        offsets = [0.5 + DELTA_PERIOD * index for index in range(
            math.ceil((self.seconds - 0.5) / DELTA_PERIOD))]
        writer = self.writer = DeltaWriter(
            random.Random(self.seed + 7919), reference[0], reference[1],
            len(offsets))
        writes = [(offset, writer.task(index))
                  for index, offset in enumerate(offsets)]
        host, port = fleet.front.host, fleet.front.port
        return load.open_loop(
            [([load.Connection(host, port)], self.reads),
             ([load.Connection(host, port)], writes)], self.seconds)


class FleetRoute(Workload):
    name = "fleet-route"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.mix = HotMix()
        self.plan = self.mix.schedule(random.Random(self.seed),
                                      FLEET_RATE, self.seconds,
                                      poisson=False)
        self.routing = self.data["fleet"] / "routing.json"

    def launch(self, fleet: fl.Fleet, run_dir: Path,
               span_dir: Optional[Path], launch: int) -> None:
        root = self.data["fleet"]
        deadline = time.perf_counter() + fl.START_TIMEOUT
        shards = []
        for index in range(2):
            store = root / "shards" / f"{index:02d}"
            shards.append(fleet.start(f"shard{index}-{launch}", [
                "serve", "--snapshot", str(store), "--workers", "1"],
                run_dir, span_dir))
        for shard in shards:
            shard.wait_port(deadline)
        urls = [arg for shard in shards for arg in (
            "--shard-url", f"http://{shard.host}:{shard.port}")]
        router = fleet.front = fleet.start(f"router{launch}", [
            "serve-router", "--manifest", str(root), "--async", *urls],
            run_dir, span_dir)
        for index, shard in enumerate(shards):
            expected = fl.snapshot_dir(
                root / "shards" / f"{index:02d}").name
            shard.wait_healthy(
                lambda h, e=expected: h.get("snapshot") == e, deadline)
        router.wait_healthy(lambda h: h.get("status") == "ok",
                            deadline)

    def warm(self, fleet: fl.Fleet) -> None:
        batch_warm(load.Connection(fleet.front.host, fleet.front.port),
                   self.mix.pairs, repeat=1)

    def drive(self, fleet: fl.Fleet) -> load.LoopResult:
        conns = [load.Connection(fleet.front.host, fleet.front.port)
                 for _ in range(2)]
        return load.open_loop([(conns, self.plan)], self.seconds)


WORKLOADS = {w.name: w for w in (HotRead, ColdTopK, IngestMix,
                                 FleetRoute)}


def anchors_of(store: Path) -> Tuple[int, Dict[str, List[int]]]:
    """Node count and the nodes carrying each planted keyword."""
    engine = check.open_reference(str(fl.snapshot_dir(store)))
    anchors = {kw: list(engine.index.nodes(kw))
               for band in bands() for kw in band}
    return engine.dbg.n, anchors


# ----------------------------------------------------------------------
# one pass: launch, warm, drive, scrape, reap
# ----------------------------------------------------------------------
@dataclass
class Pass:
    traced: bool
    setups: List[float]
    loop: load.LoopResult
    pss: float
    before: List[Dict[str, float]]
    after: List[Dict[str, float]]
    health: Dict[str, Any]
    reaped: int
    span_dir: Optional[Path] = None
    writer: Optional[DeltaWriter] = None

    @property
    def queries(self) -> List[load.Op]:
        return [op for op in self.loop.ops if op.kind == "query"]


_PHASE = [time.perf_counter()]


def phase(name: str) -> None:
    """Log how long the phase that just ended took (stderr)."""
    now = time.perf_counter()
    print(f"perfbench: {name} {now - _PHASE[0]:.1f}s", file=sys.stderr)
    _PHASE[0] = now


def scrape(fleet: fl.Fleet) -> List[Dict[str, float]]:
    return [layers.parse_metrics(server.get("/metrics"))
            for server in fleet.servers]


def run_pass(workload: Workload, run_dir: Path, traced: bool) -> Pass:
    span_dir = None
    if traced:
        span_dir = run_dir / "spans"
        span_dir.mkdir()
    repeats = 1 if traced else SETUP_REPEATS
    setups = []
    for launch in range(repeats):
        fleet = fl.Fleet()
        start = time.perf_counter()
        try:
            workload.launch(fleet, run_dir, span_dir, launch)
        except BaseException:
            fleet.stop()
            raise
        setups.append(time.perf_counter() - start)
        if launch < repeats - 1:
            fleet.stop()
    phase("setup")
    try:
        workload.warm(fleet)
        phase("warm-up")
        before = scrape(fleet)
        loop = workload.drive(fleet)
        phase("measured window")
        pss = fl.pss_mib(fleet.pids())
        after = scrape(fleet)
        health = json.loads(fleet.front.get("/healthz"))
    finally:
        reaped = fleet.stop()
        phase("stop")
    return Pass(traced, setups, loop, pss, before, after, health,
                len(reaped), span_dir, getattr(workload, "writer", None))


# ----------------------------------------------------------------------
# answer check
# ----------------------------------------------------------------------
def check_passes(workload: Workload, passes: List[Pass]) -> None:
    """Mark every wrong answer (``op.wrong``) in every pass."""
    if isinstance(workload, IngestMix):
        for one in passes:
            check_ingest(workload, one)
        return
    ops = [op for one in passes for op in one.loop.ops
           if op.kind in ("query", "session_next") and op.status == 200
           and op.error is None]
    depth: Dict[Key, int] = {}
    for op in ops:
        need = op.meta["k"] if op.kind == "query" \
            else op.meta["offset"] + PAGE
        depth[op.meta["key"]] = max(depth.get(op.meta["key"], 0), need)
    store = workload.data[workload.dataset]
    refs = check.rankings(
        str(fl.snapshot_dir(store)),
        [(key[0], key[1], need) for key, need in sorted(depth.items())],
        processes=2 if isinstance(workload, ColdTopK) else 1)
    for op in ops:
        reference = refs[op.meta["key"]]
        if op.kind == "query":
            op.wrong = check.compare(
                check.served(op.body["communities"]), reference, 0,
                op.meta["k"])
            if op.wrong is None and op.body.get("partial"):
                op.wrong = "partial answer"
        else:
            op.wrong = check.compare(
                check.served(op.body["communities"]), reference,
                op.meta["offset"], PAGE)
    sessions: Dict[str, List[load.Op]] = {}
    for op in ops:
        if op.kind == "session_next":
            sessions.setdefault(op.meta["session"], []).append(op)
    for pages in sessions.values():
        cores = [tuple(c["core"]) for op in pages
                 for c in op.body["communities"]]
        if len(cores) != len(set(cores)):
            pages[-1].wrong = "session repeated a core across pages"


def check_ingest(workload: IngestMix, one: Pass) -> None:
    """A read must match the reference at some state between the
    deltas acknowledged before it was sent and those sent before it
    returned — so a read sent after an ack must reflect that delta."""
    from repro.wal.records import parse_delta

    acked = one.writer.acked
    reads = [op for op in one.loop.ops if op.kind == "query"
             and op.status == 200 and op.error is None]
    window = {}
    for op in reads:
        low = sum(1 for _, ack in acked if ack.end < op.send)
        high = sum(1 for _, ack in acked if ack.send < op.end)
        window[op.rid] = (low, high)
        op.wrong = "no reference state matched"
    engine = check.open_reference(
        str(fl.snapshot_dir(workload.data["dblp"])))
    for state in range(len(acked) + 1):
        if state:
            payload = acked[state - 1][0]
            engine.apply_delta(parse_delta(payload,
                                           base_nodes=engine.dbg.n))
        refs: Dict[Key, Any] = {}
        for op in reads:
            low, high = window[op.rid]
            if op.wrong is None or not low <= state <= high:
                continue
            key = op.meta["key"]
            if key not in refs:
                refs[key] = check.ranking(engine, key[0], key[1],
                                          max(KS))
            verdict = check.compare(check.served(op.body["communities"]),
                                    refs[key], 0, op.meta["k"])
            if verdict is None:
                op.wrong = None
            elif state == low:
                op.wrong = f"state {state}: {verdict}"


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latencies_ms(ops: List[load.Op]) -> List[float]:
    """Failures count as slower than every success: the call timeout."""
    return [1000.0 * (op.latency if op.ok else load.CALL_TIMEOUT)
            for op in ops]


def end_to_end(one: Pass) -> Dict[str, Any]:
    """Every end-to-end figure of one pass, with sample counts."""
    queries = one.queries
    if not queries:
        raise fl.BenchError("no /query completed in the window")
    lat = latencies_ms(queries)
    ok = sum(1 for op in queries if op.ok)
    elapsed = one.loop.end - one.loop.start
    nexts = [op for op in one.loop.ops if op.kind == "session_next"]
    deltas = [op for op in one.loop.ops if op.kind == "delta"]
    late = one.loop.lateness
    grew = one.loop.unsent > 0 or len(late) > 2 and (
        statistics.linear_regression(range(len(late)), late).slope
        * len(late) > BACKLOG_GROWTH * elapsed)
    figures = {
        "setup_s": statistics.median(one.setups),
        "query_p50_ms": percentile(lat, 0.50),
        "query_p90_ms": percentile(lat, 0.90),
        "query_p95_ms": percentile(lat, 0.95),
        "query_p99_ms": (percentile(lat, 0.99)
                         if len(lat) >= 1000 else None),
        "throughput_qps": ok / elapsed,
        "session_next_p50_ms": (percentile(latencies_ms(nexts), 0.5)
                                if nexts else None),
        "ingest_p50_ms": (percentile(latencies_ms(deltas), 0.5)
                          if deltas else None),
        "error_rate": (sum(1 for op in one.loop.ops if not op.ok)
                       / max(1, len(one.loop.ops))),
        "server_pss_mb": one.pss,
    }
    counts = {"query": len(queries), "session_next": len(nexts),
              "ingest": len(deltas), "setup": len(one.setups),
              "ops": len(one.loop.ops)}
    hygiene = {
        "late_p99_ms": 1000.0 * percentile(late, 0.99) if late else 0.0,
        "backlog_grew": grew,
        "unsent": one.loop.unsent,
        "reaped_by_kill": one.reaped,
    }
    return {"figures": figures, "counts": counts, "hygiene": hygiene}


#: Every end-to-end figure: its unit and the sample count printed with
#: it. BENCHMARK.json gates the ones that every gated workload produces,
#: that are never 0 and that stay steady between seeds.
E2E = {
    "setup_s": ("s", "setup"),
    "query_p50_ms": ("ms", "query"),
    "query_p90_ms": ("ms", "query"),
    "query_p95_ms": ("ms", "query"),
    "query_p99_ms": ("ms", "query"),
    "throughput_qps": ("1/s", "query"),
    "session_next_p50_ms": ("ms", "session_next"),
    "ingest_p50_ms": ("ms", "ingest"),
    "error_rate": ("ratio", "ops"),
    "server_pss_mb": ("MiB", None),
}


def report_e2e(label: str, summary: Dict[str, Any]) -> None:
    print(f"  [{label}] end to end")
    for name, value in summary["figures"].items():
        unit, samples = E2E[name]
        shown = "n/a" if value is None else f"{value:.4f}"
        tail = f"  (n={summary['counts'][samples]})" if samples else ""
        print(f"    {name:24s} {shown:>12s} {unit}{tail}")
    hygiene = summary["hygiene"]
    print(f"    generator late p99 {hygiene['late_p99_ms']:.1f} ms, "
          f"unsent {hygiene['unsent']}, backlog "
          f"{'GREW (run invalid)' if hygiene['backlog_grew'] else 'steady'}"
          f", processes reaped by SIGKILL {hygiene['reaped_by_kill']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds through the finally blocks that reap the
    # server trees (they run in sessions of their own).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return run(args)
    except fl.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


def run(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(fl.SRC))
    kind = WORKLOADS[args.workload]
    data = fl.prepare(["imdb"] if kind is ColdTopK else ["dblp"],
                      fleet=kind is FleetRoute)
    run_dir = fl.WORK / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    spec = json.loads((fl.ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in
             spec["per_layer" if args.trace else "end_to_end"]}
    phase("inputs")
    keep = False
    try:
        workload = kind(data, args.seed, args.seconds)
        passes = [run_pass(workload, run_dir, traced=False)]
        if args.trace:
            passes.append(run_pass(workload, run_dir, traced=True))
        check_passes(workload, passes)
        phase("answer check")
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        summaries = [end_to_end(one) for one in passes]
        for one, summary in zip(passes, summaries):
            report_e2e("traced" if one.traced else "untraced", summary)
        if args.trace:
            metrics = traced_layers(workload, passes, summaries, units)
            print("  [traced] per layer")
            for name, value in metrics.items():
                print(f"    {name:36s} {value:12.4f} {units[name]}")
        else:
            figures = summaries[0]["figures"]
            metrics = {name: figures[name] for name in units}
        ops = [op for one in passes for op in one.loop.ops]
        wrong = [op for op in ops if op.wrong]
        for op in [op for op in ops if not op.ok][:5]:
            detail = op.wrong or op.error or op.body
            print(f"  FAILED {op.kind} status={op.status} "
                  f"key={op.meta.get('key')}: {detail}")
        print(json.dumps({
            "correct": not wrong,
            "attempted": len(ops),
            "failed": sum(1 for op in ops if not op.ok),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
    except fl.BenchError as error:
        keep = True
        raise fl.BenchError(f"{error} (run files kept in {run_dir})")
    finally:
        if not keep:
            shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def traced_layers(workload: Workload, passes: List[Pass],
                  summaries: List[Dict[str, Any]],
                  names: Dict[str, str]) -> Dict[str, float]:
    """The traced pass's layer table, in ``names`` order, plus tracing
    overhead (traced minus untraced) and span coverage."""
    traced = passes[1]
    spans = layers.load_spans(traced.span_dir)
    queries = traced.queries
    deltas = sum(1 for op in traced.loop.ops
                 if op.kind == "delta" and op.ok)
    compaction = traced.health.get("wal", {}).get("compaction", {})
    metrics = layers.per_layer(
        spans, queries, (traced.loop.start, traced.loop.end),
        traced.before, traced.after, deltas, compaction,
        layers.halo_share(workload.routing))
    base, with_spans = (s["figures"] for s in summaries)
    prefix = "trace.overhead."
    for name in names:
        if name.startswith(prefix):
            figure = name[len(prefix):]
            metrics[name] = with_spans[figure] - base[figure]
    metrics["trace.uncovered_share"] = layers.uncovered_share(
        spans, queries)
    return {name: float(metrics[name]) for name in names}


if __name__ == "__main__":
    sys.exit(main())
