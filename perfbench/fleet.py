"""Bench-scale inputs and the server processes a run drives.

Inputs are built from source with the program's own CLI
(``python -m repro snapshot build`` / ``snapshot partition``) and
cached under ``.perfbench/data/<source hash>/`` in the checkout; every
run re-checks their fingerprint (node, edge and posting counts plus
the sha256 of the graph section, from ``fingerprints.json``) and
refuses to run on a mismatch. Snapshot ids are not compared: the
index section embeds its build time, so two builds of the same input
get different ids.

Servers run as process-group leaders (``start_new_session``), so
stopping one reaps its whole tree: the router, shard backends and
every forked pool worker. A process that survives the reap fails the
run.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Seconds a server gets to come up, and to exit after SIGTERM.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def env() -> Dict[str, str]:
    """Environment for every child: the checkout's sources first."""
    child = dict(os.environ)
    child["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([child["PYTHONPATH"]]
                                 if child.get("PYTHONPATH") else []))
    child["PYTHONDONTWRITEBYTECODE"] = "1"
    return child


def source_hash() -> str:
    """Digest of the program's sources: the input cache key."""
    if not SRC.is_dir():
        raise BenchError(f"no program sources at {SRC}")
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _repro(*args: str, log: Path) -> None:
    with open(log, "ab") as handle:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *args], cwd=ROOT, env=env(),
            stdout=handle, stderr=subprocess.STDOUT, timeout=600)
    if done.returncode != 0:
        raise BenchError(f"`repro {' '.join(args)}` failed "
                         f"(exit {done.returncode}); see {log}")


def snapshot_dir(store: Path) -> Path:
    """The latest snapshot directory of a store."""
    return store / (store / "LATEST").read_text().strip()


def fingerprint(store: Path) -> Dict[str, Any]:
    """Counts from the manifest plus the graph section's sha256."""
    path = snapshot_dir(store)
    manifest = json.loads((path / "manifest.json").read_text())
    counts = manifest["counts"]
    graph = path / manifest["sections"]["graph"]["file"]
    return {
        "nodes": counts["nodes"],
        "edges": counts["edges"],
        "node_postings": counts["node_postings"],
        "edge_postings": counts["edge_postings"],
        "graph_sha256": hashlib.sha256(graph.read_bytes()).hexdigest(),
    }


def expected_fingerprints() -> Dict[str, Dict[str, Any]]:
    return json.loads((HERE / "fingerprints.json").read_text())


def prepare(datasets: List[str], fleet: bool) -> Dict[str, Path]:
    """Build (or reuse) the bench stores; verify their fingerprints.

    Returns ``{"dblp": store, "imdb": store, "fleet": partition root}``
    for what was asked.
    """
    expected = expected_fingerprints()
    base = WORK / "data" / source_hash()
    base.mkdir(parents=True, exist_ok=True)
    log = base / "build.log"
    out: Dict[str, Path] = {}
    for name in datasets:
        store = base / name
        if not (store / "LATEST").exists():
            staging = base / f"{name}.staging"
            shutil.rmtree(staging, ignore_errors=True)
            _repro("snapshot", "build", "--dataset", name, "--scale",
                   "bench", "--store", str(staging), log=log)
            staging.rename(store)
        found = fingerprint(store)
        if found != expected[name]:
            raise BenchError(
                f"{name} bench input does not match fingerprints.json:"
                f" built {found}, expected {expected[name]}")
        out[name] = store
    if fleet:
        root = base / "fleet"
        if not (root / "routing.json").exists():
            staging = base / "fleet.staging"
            shutil.rmtree(staging, ignore_errors=True)
            _repro("snapshot", "partition", "--snapshot",
                   str(out["dblp"]), "--out", str(staging), "--shards",
                   "2", log=log)
            staging.rename(root)
        out["fleet"] = root
    return out


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def fetch(host: str, port: int, path: str, timeout: float = 10.0
          ) -> bytes:
    """One GET on a fresh connection (health checks, scrapes)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        data = reply.read()
        if reply.status != 200:
            raise BenchError(f"GET {path} -> {reply.status}")
        return data
    finally:
        conn.close()


def session_pids(leader: int) -> List[int]:
    """Every live process in ``leader``'s session (the server tree)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == leader and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def pss_mib(pids: List[int]) -> float:
    """Summed proportional set size of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


class Server:
    """One ``python -m repro`` server process (and its children)."""

    def __init__(self, name: str, argv: List[str], run_dir: Path,
                 span_dir: Optional[Path] = None) -> None:
        self.name = name
        self.port_file = run_dir / f"{name}.port"
        self.log = run_dir / f"{name}.log"
        if self.port_file.exists():
            self.port_file.unlink()
        if span_dir is not None:
            head = [sys.executable, str(HERE / "launch.py"),
                    str(span_dir)]
        else:
            head = [sys.executable, "-m", "repro"]
        command = head + argv + ["--port", "0", "--port-file",
                                 str(self.port_file)]
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=env(), stdout=log, stderr=log,
                stdin=subprocess.DEVNULL, start_new_session=True)
        self.host = ""
        self.port = 0
        #: Pids that outlived SIGTERM and were killed at the last stop.
        self.leaked: List[int] = []

    def wait_port(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"{self.name} exited with "
                                 f"{self.proc.returncode}; see {self.log}")
            if self.port_file.exists():
                text = self.port_file.read_text().split()
                if len(text) == 2:
                    self.host, self.port = text[0], int(text[1])
                    return
            time.sleep(0.005)
        raise BenchError(f"{self.name} did not bind in time")

    def wait_healthy(self, ready: Callable[[Dict[str, Any]], bool],
                     deadline: float) -> Dict[str, Any]:
        self.wait_port(deadline)
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"{self.name} exited; see {self.log}")
            try:
                health = json.loads(fetch(self.host, self.port,
                                          "/healthz"))
                if ready(health):
                    return health
            except (OSError, BenchError, ValueError):
                pass
            time.sleep(0.005)
        raise BenchError(f"{self.name} never became healthy; see "
                         f"{self.log}")

    def get(self, path: str) -> bytes:
        return fetch(self.host, self.port, path)

    def pids(self) -> List[int]:
        return session_pids(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM, wait, SIGKILL the group; fail if anything lives."""
        leader = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        survivors = session_pids(leader)
        if survivors:
            for pid in survivors:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self.proc.poll() is None:
            self.proc.wait(timeout=STOP_TIMEOUT)
        deadline = time.perf_counter() + STOP_TIMEOUT
        while session_pids(leader) and time.perf_counter() < deadline:
            time.sleep(0.02)
        if session_pids(leader):
            raise BenchError(f"{self.name}: processes survived the "
                             f"reap: {session_pids(leader)}")
        self.leaked = survivors


class Fleet:
    """The servers one workload serves from; ``front`` takes requests."""

    def __init__(self) -> None:
        self.servers: List[Server] = []
        self.front: Optional[Server] = None

    def start(self, name: str, argv: List[str], run_dir: Path,
              span_dir: Optional[Path] = None) -> Server:
        server = Server(name, argv, run_dir, span_dir)
        self.servers.append(server)
        return server

    def pids(self) -> List[int]:
        return [pid for server in self.servers for pid in server.pids()]

    def stop(self) -> List[int]:
        """Stop every server; returns pids that needed SIGKILL."""
        leaked: List[int] = []
        error: Optional[BenchError] = None
        for server in reversed(self.servers):
            try:
                server.stop()
                leaked += server.leaked
            except BenchError as failure:
                error = failure
        if error is not None:
            raise error
        return leaked
