"""Span recorder installed into the served processes of a traced run.

The benchmark never edits ``src/``: :func:`install` wraps public
functions of each layer on the request path by replacing the module
and class attributes that callers look them up through. It runs in
the launcher (``perfbench/launch.py``) before ``repro.cli.main``
serves, so pool workers, which fork later, inherit the wrappers.

Every span is one tuple ``(span_id, parent_id, request_id, name,
start, end, attrs)`` with ``time.perf_counter`` stamps (the system
monotonic clock, shared by every process on the box). Spans stay in
memory and are written to ``<out_dir>/spans-<pid>.json`` when the
process exits: at interpreter exit for servers and routers, when
``worker_main`` returns for pool workers (they leave through
``os._exit``).

The current span travels in a :class:`contextvars.ContextVar`, so
asyncio tasks inherit it; the admission controller's thread hop is
bridged by running each job inside the submitter's copied context.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib
import itertools
import json
import os
import pickle
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

#: ``(span_id, request_id)`` of the innermost open span, or ``None``.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class Recorder:
    """This process's span list and its dump target."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List[Tuple] = []
        self._ids = itertools.count(1)
        self._dumped = False

    def after_fork(self) -> None:
        """A forked child starts with no spans and no open span."""
        self.spans = []
        self._ids = itertools.count(1)
        self._dumped = False
        _CURRENT.set(None)

    def next_id(self) -> int:
        return next(self._ids)

    def record(self, span_id: int, parent: Optional[int],
               request_id: Optional[str], name: str, start: float,
               end: float, attrs: Optional[Dict[str, Any]] = None
               ) -> None:
        self.spans.append((span_id, parent, request_id, name, start,
                           end, attrs))

    def dump(self) -> None:
        """Write every recorded span once; later calls are no-ops."""
        if self._dumped:
            return
        self._dumped = True
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)
        os.replace(path + ".tmp", path)


REC: Optional[Recorder] = None


def _rid_of(path: str) -> Optional[str]:
    """The benchmark's request id, carried as ``?rid=`` on the path."""
    _, _, query = path.partition("?")
    for part in query.split("&"):
        if part.startswith("rid="):
            return part[4:]
    return None


def _open(name: str, rid: Optional[str] = None) -> Tuple:
    parent = _CURRENT.get()
    span_id = REC.next_id()
    if rid is None:
        rid = parent[1] if parent is not None else f"{os.getpid()}-{span_id}"
    token = _CURRENT.set((span_id, rid))
    return span_id, (parent[0] if parent is not None else None), rid, token


def traced(name: str, fn: Callable,
           attrs: Optional[Callable[..., Dict[str, Any]]] = None,
           rid_of: Optional[Callable[..., Optional[str]]] = None,
           root: bool = False) -> Callable:
    """``fn`` wrapped in a span; ``attrs(result, *args)`` tags it."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if root:
            _CURRENT.set(None)
        rid = rid_of(*args) if rid_of is not None else None
        span_id, parent, rid, token = _open(name, rid)
        start = _now()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _now()
            _CURRENT.reset(token)
            tags = attrs(result, *args, **kwargs) if attrs else None
            REC.record(span_id, parent, rid, name, start, end, tags)

    return wrapper


def traced_async(name: str, fn: Callable,
                 rid_of: Optional[Callable[..., Optional[str]]] = None
                 ) -> Callable:
    """Coroutine-function twin of :func:`traced`."""

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        rid = rid_of(*args) if rid_of is not None else None
        span_id, parent, rid, token = _open(name, rid)
        start = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = _now()
            _CURRENT.reset(token)
            REC.record(span_id, parent, rid, name, start, end)

    return wrapper


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Point every ``repro.*`` module global that *is* ``original``
    at ``wrapper`` (callers import functions by name and alias)."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_method(cls: type, method: str, wrapper_of: Callable) -> None:
    setattr(cls, method, wrapper_of(getattr(cls, method)))


def _submit_wrapper(submit: Callable) -> Callable:
    """Admission hop: record queue wait, run the job in the caller's
    context so its spans nest under the request."""

    @functools.wraps(submit)
    def wrapper(self: Any, fn: Callable, *args: Any, **kwargs: Any):
        parent = _CURRENT.get()
        submitted = _now()
        context = contextvars.copy_context()

        def job(*job_args: Any, **job_kwargs: Any) -> Any:
            started = _now()
            REC.record(REC.next_id(),
                       parent[0] if parent else None,
                       parent[1] if parent else None,
                       "service.admission_wait", submitted, started)
            return context.run(traced("service.job", fn),
                               *job_args, **job_kwargs)

        return submit(self, job, *args, **kwargs)

    return wrapper


def _broadcast_wrapper(broadcast: Callable) -> Callable:
    """``WorkerPool.broadcast``: span ends when every worker acked."""

    @functools.wraps(broadcast)
    def wrapper(self: Any, op: str, payload: Any) -> Any:
        parent = _CURRENT.get()
        span_id = REC.next_id()
        start = _now()
        futures = broadcast(self, op, payload)
        pending = [len(futures)]
        lock = threading.Lock()

        def finish() -> None:
            REC.record(span_id, parent[0] if parent else None,
                       parent[1] if parent else None,
                       "parallel.broadcast", start, _now(), {"op": op})

        def done(_future: Any) -> None:
            with lock:
                pending[0] -= 1
                last = pending[0] == 0
            if last:
                finish()

        if not futures:
            finish()
        for future in futures.values():
            future.add_done_callback(done)
        return futures

    return wrapper


def _execute_wrapper(execute: Callable) -> Callable:
    """``ParallelQueryEngine.execute``: tag worker stage seconds (the
    envelope's ``timings``) and the pickled answer size."""

    @functools.wraps(execute)
    def wrapper(self: Any, spec: Any, context: Any = None) -> Any:
        from repro.engine.context import ensure_context

        context = ensure_context(context)
        before = sum(context.timings.values())
        span_id, parent, rid, token = _open("parallel.execute")
        start = _now()
        result = None
        try:
            result = execute(self, spec, context)
            return result
        finally:
            end = _now()
            _CURRENT.reset(token)
            REC.record(span_id, parent, rid, "parallel.execute", start,
                       end, {
                           "worker_s": sum(context.timings.values())
                           - before,
                           "bytes": len(pickle.dumps(result)),
                       })

    return wrapper


def _dijkstra_wrapper(kernel: Callable, site: str,
                      seen: set) -> Callable:
    """``bounded_dijkstra`` per call site: settled count and whether
    the exact search (adjacency, seeds, radius) was seen before."""
    name = f"graph.dijkstra.{site}"

    @functools.wraps(kernel)
    def wrapper(adjacency: Any, sources: Any, radius: Any = float("inf")
                ) -> Any:
        seeds = tuple(sources)
        key = hash((id(adjacency), seeds, radius))
        repeat = key in seen
        seen.add(key)
        span_id, parent, rid, token = _open(name)
        start = _now()
        result = None
        try:
            result = kernel(adjacency, seeds, radius)
            return result
        finally:
            end = _now()
            _CURRENT.reset(token)
            REC.record(span_id, parent, rid, name, start, end, {
                "settled": len(result) if result is not None else 0,
                "repeat": repeat})

    return wrapper


def _json_proxy(json_module: types.ModuleType) -> types.ModuleType:
    """A stand-in ``json`` module whose ``dumps`` is a serialize span."""
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json_module))
    proxy.dumps = traced("service.serialize", json_module.dumps)
    return proxy


def install(out_dir: str) -> Recorder:
    """Wrap every traced layer function; returns the recorder."""
    global REC
    REC = Recorder(out_dir)
    os.register_at_fork(after_in_child=REC.after_fork)
    atexit.register(REC.dump)

    # Import every module whose functions are wrapped (the CLI imports
    # most of them lazily), so alias replacement sees them all.
    def module(name: str) -> types.ModuleType:
        # ``import a.b as c`` would bind a package attribute that
        # shadows the submodule (``repro.core.neighbor`` is both).
        return importlib.import_module(name)

    module("repro.cli")
    module("repro.core.comm_k")
    bestcore = module("repro.core.bestcore")
    getcommunity = module("repro.core.getcommunity")
    neighbor = module("repro.core.neighbor")
    projection = module("repro.core.projection")
    dijkstra = module("repro.graph.dijkstra")
    pengine = module("repro.parallel.engine")
    pool = module("repro.parallel.pool")
    worker = module("repro.parallel.worker")
    admission = module("repro.service.admission")
    server = module("repro.service.server")
    sessions = module("repro.service.sessions")
    aio = module("repro.shard.aio")
    snapshot = module("repro.snapshot.snapshot")
    store = module("repro.snapshot.store")
    maintenance = module("repro.text.maintenance")
    compact = module("repro.wal.compact")
    wal_log = module("repro.wal.log")

    # service
    _wrap_method(server.ServiceHandler, "_dispatch", lambda fn: traced(
        "service.dispatch", fn, root=True,
        rid_of=lambda handler, *_: _rid_of(handler.path),
        attrs=lambda _r, handler, method: {
            "path": handler.path.partition("?")[0], "method": method}))
    _wrap_method(server.CommunityService, "handle",
                 lambda fn: traced("service.handle", fn))
    _wrap_method(admission.AdmissionController, "submit",
                 _submit_wrapper)
    server.results_to_dict = traced("service.serialize",
                                    server.results_to_dict)
    server.json = _json_proxy(server.json)
    _wrap_method(sessions.SessionManager, "next",
                 lambda fn: traced("service.session_next", fn))

    # parallel
    _wrap_method(pengine.ParallelQueryEngine, "execute",
                 _execute_wrapper)
    _wrap_method(pool.WorkerPool, "broadcast", _broadcast_wrapper)
    for task, name in ((worker._run_query, "worker.query"),
                       (worker._apply_delta, "worker.delta"),
                       (worker._reload, "worker.reload")):
        _replace_everywhere(task, traced(name, task, root=True))
    original_main = pool.worker_main

    @functools.wraps(original_main)
    def worker_main(*args: Any, **kwargs: Any) -> Any:
        try:
            return original_main(*args, **kwargs)
        finally:
            REC.dump()

    pool.worker_main = worker_main

    # core (dijkstra first: its per-site wrappers replace the names
    # the core and text modules imported)
    seen: set = set()
    for module in (neighbor, getcommunity, projection):
        module.bounded_dijkstra = _dijkstra_wrapper(
            dijkstra.bounded_dijkstra, "query", seen)
    maintenance.bounded_dijkstra = _dijkstra_wrapper(
        dijkstra.bounded_dijkstra, "maintenance", seen)
    _replace_everywhere(projection.project, traced(
        "core.projection", projection.project,
        attrs=lambda result, index, *_a, **_k: {
            "nodes": result.n if result is not None else 0,
            "total": index.dbg.n}))
    for fn, name in ((neighbor.neighbor, "core.neighbor"),
                     (bestcore.best_core, "core.bestcore"),
                     (getcommunity.get_community, "core.getcommunity")):
        _replace_everywhere(fn, traced(name, fn))

    # text
    _replace_everywhere(maintenance.affected_keywords, traced(
        "text.affected_keywords", maintenance.affected_keywords,
        attrs=lambda result, *_a, **_k: {
            "keywords": len(result) if result is not None else 0}))
    for fn, name in ((maintenance.apply_delta, "text.apply_delta"),
                     (maintenance.update_index, "text.update_index"),
                     (maintenance.extend_database_graph,
                      "text.extend_graph")):
        _replace_everywhere(fn, traced(name, fn))

    # wal
    _wrap_method(wal_log.WriteAheadLog, "append_delta", _append_wrapper)
    _wrap_method(compact.Compactor, "compact_once", lambda fn: traced(
        "wal.compact", fn, root=True))
    compact.replay = traced("wal.compact_replay", compact.replay)
    _wrap_method(pengine.ParallelQueryEngine, "load_snapshot",
                 lambda fn: traced("wal.compact_load", fn))

    # snapshot
    _replace_everywhere(snapshot.load_snapshot, traced(
        "snapshot.load", snapshot.load_snapshot))
    _wrap_method(store.SnapshotStore, "publish",
                 lambda fn: traced("snapshot.publish", fn))

    # shard (router process)
    _wrap_method(aio.AsyncRouterService, "handle_async",
                 lambda fn: traced_async(
                     "router.handle", fn,
                     rid_of=lambda _self, _m, path, *_: _rid_of(path)))
    _wrap_method(aio.AsyncShardClient, "request",
                 lambda fn: traced_async("shard.leg", fn))
    return REC


def _append_wrapper(append: Callable) -> Callable:
    """``WriteAheadLog.append_delta`` tagged with the bytes it added."""

    @functools.wraps(append)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        before = self.wal_bytes
        span_id, parent, rid, token = _open("wal.append")
        start = _now()
        try:
            return append(self, *args, **kwargs)
        finally:
            end = _now()
            _CURRENT.reset(token)
            REC.record(span_id, parent, rid, "wal.append", start, end,
                       {"bytes": self.wal_bytes - before})

    return wrapper
