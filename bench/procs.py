"""What runs in the benchmark's child processes.

The orchestrator (``run.py``) never holds an engine. Each set-up starts
fresh processes so that set-up time and peak memory are those of one
system start, not of a process that has already built three:

* ``runner_main`` is the one load-generating process. For an embedded
  workload it also holds the engine (that is what embedded means); for a
  wire workload it holds the blocking clients, at most two threads.
* ``server_main`` holds the engine and a ``ReproServer`` for the wire
  workloads, so encode and decode do not share an interpreter lock. In a
  traced run the runner hosts the server in a thread instead, so that one
  clock sees both sides.

Only this surface of the program is used: ``Engine``,
``EngineConfig.with_jits()/traditional()``, ``scan_workers``,
``apply_stats_mode``, ``engine.session().execute``, ``ReproServer``,
``connect`` and (in ``dataset``) ``build_car_database``.
"""

from __future__ import annotations

import gc
import os
import pickle
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

from . import dataset, oracle
from .layers import Tracer
from .workloads import Spec, Statement, Workload

_clock = time.perf_counter
# A traced run alternates traced and untraced twelfths of its window in the
# order T U U T, so that a drift over the window (caches warming, archives
# growing) falls on both alike.
TRACE_PHASES = 12


class Record(NamedTuple):
    """One executed statement, as the load generator saw it."""

    index: int  # position in the stream's round
    latency_s: float  # execute() call -> rows as Python tuples
    count: int
    digest: int
    server_s: Optional[float]  # wire only: compile + execute + fetch, as reported
    traced: bool
    streamed: bool  # arrived as v2 binary chunks
    error: Optional[str]


class Pipe:
    """Pickled messages over a pair of byte streams (parent <-> child)."""

    def __init__(self, reader, writer):
        self._reader, self._writer = reader, writer

    def send(self, message) -> None:
        pickle.dump(message, self._writer, protocol=pickle.HIGHEST_PROTOCOL)
        self._writer.flush()

    def recv(self):
        return pickle.load(self._reader)


# ----------------------------------------------------------------------
# The system under test
# ----------------------------------------------------------------------
def build_engine(spec: Spec, scale: float, reference: bool):
    """Load the data and start an engine.

    ``reference`` builds the oracle: no JITS, no worker pool, the plainest
    configuration the program has.
    """
    from repro import Engine, EngineConfig, StatsMode

    database = dataset.load_database(scale, spec.indexes)
    if reference:
        config = EngineConfig.traditional()
    else:
        config = EngineConfig.with_jits(plan_cache_enabled=spec.plan_cache)
        config.scan_workers = spec.scan_workers
    for knob in ("scan_cost_per_row", "commit_latency", "fetch_overhead"):
        # Injected sleeps stand in for I/O in benchmarks/; here every
        # number is real work, so they must be off. (A later change may
        # remove the knobs altogether.)
        if getattr(config, knob, 0.0) != 0.0:
            raise RuntimeError(f"EngineConfig.{knob} must be 0 for this benchmark")
    engine = Engine(database, config)
    engine.apply_stats_mode(StatsMode.GENERAL)
    return engine


def parent_pids() -> Dict[int, int]:
    """``{pid: parent pid}`` of every live process, from ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # exited while we were listing
            parents[int(entry)] = int(stat.rpartition(")")[2].split()[1])
    return parents


def process_tree_usage(root_pid: int) -> Dict[str, float]:
    """Peak resident memory (MiB, summed) and CPU seconds of ``root_pid``
    and of every process below it."""
    parents = parent_pids()
    tree, grew = {root_pid}, True
    while grew:
        grew = False
        for pid, parent in parents.items():
            if parent in tree and pid not in tree:
                tree.add(pid)
                grew = True
    rss_mib = cpu_s = 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in tree:
        try:
            status = Path("/proc", str(pid), "status").read_text()
            fields = Path("/proc", str(pid), "stat").read_text().rpartition(")")[2].split()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                rss_mib += int(line.split()[1]) / 1024.0
        if pid != root_pid:
            cpu_s += (int(fields[11]) + int(fields[12])) / ticks
    return {"peak_rss_mib": rss_mib, "children_cpu_s": cpu_s}


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def server_main(conn, spec: Spec, scale: float) -> None:
    from repro.server import ReproServer

    engine = build_engine(spec, scale, reference=False)
    server = ReproServer(engine, port=0).start_in_thread()
    try:
        conn.send(("ready", {"port": server.port}))
        conn.recv()  # anything: time to stop
        conn.send(("bye", process_tree_usage(os.getpid())))
    finally:
        server.stop_from_thread()
        engine.shutdown()


# ----------------------------------------------------------------------
# Runner process
# ----------------------------------------------------------------------
def runner_main(
    conn,
    spec: Spec,
    scale: float,
    workload: Workload,
    port: Optional[int],
    reference: bool,
    trace_path: Optional[str],
) -> None:
    """Set up, report ready, then do what the orchestrator asks:

    ``("round",)``      execute every stream once, in order, single-threaded
                        (the oracle pass); reply with the outcomes.
    ``("measure", s)``  closed loop over the streams for ``s`` seconds;
                        reply with the per-statement records.
    ``("stop",)``       tear down and exit.
    """
    engine = server = None
    clients: list = []
    try:
        traced = trace_path is not None
        if not spec.wire or reference or traced:
            engine = build_engine(spec, scale, reference)
        if spec.wire and not reference:
            from repro.server import ReproServer, connect

            if traced:
                server = ReproServer(engine, port=0).start_in_thread()
                port = server.port
            clients = [
                connect(port=port, timeout=120.0, max_retries=8)
                for _ in workload.streams
            ]
            callers = clients
        else:
            callers = [engine.session() for _ in workload.streams]
        # Looked up per call, not bound once: a traced run replaces
        # ``execute`` on the class while the loop is running.
        executes = [
            (lambda sql, caller=caller: caller.execute(sql)) for caller in callers
        ]
        for sql in workload.warmup:
            executes[0](sql)
        gc.collect()
        conn.send(("ready", {}))

        while True:
            request = conn.recv()
            if request[0] == "round":
                conn.send(("outcomes", [
                    [oracle.outcome_of(execute(s.sql), s.ordered) for s in stream]
                    for execute, stream in zip(executes, workload.streams)
                ]))
            elif request[0] == "measure":
                conn.send(("records", _measure(
                    executes, workload.streams, request[1], trace_path, engine,
                    spec.wire,
                )))
            else:
                return
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop_from_thread()
        if engine is not None:
            engine.shutdown()


def _measure(
    executes: List[Callable],
    streams: List[List[Statement]],
    seconds: float,
    trace_path: Optional[str],
    engine,
    wire: bool,
) -> dict:
    """The closed loop: each stream's client sends its next statement when
    the previous reply has been turned into rows, round after round, until
    the deadline. Returns ``{"streams": [[Record, ...], ...], ...}``."""
    tracer = Tracer() if trace_path else None
    phase_lock = threading.Lock()
    state = {"traced": False}
    records: List[List[Record]] = [[] for _ in streams]
    start_gate = threading.Barrier(len(streams))
    before = process_tree_usage(os.getpid())
    started_at = [0.0]

    def set_phase(now: float) -> bool:
        """Install or remove the wrappers when the phase changes; the ratio
        of traced to untraced latency is the tracing overhead."""
        if tracer is None:
            return False
        want = int((now - started_at[0]) / (seconds / TRACE_PHASES)) % 4 in (0, 3)
        if want != state["traced"]:
            with phase_lock:
                if want != state["traced"]:
                    tracer.install() if want else tracer.uninstall()
                    state["traced"] = want
        return want

    def loop(which: int) -> None:
        execute, stream, out = executes[which], streams[which], records[which]
        start_gate.wait()
        if which == 0:
            started_at[0] = _clock()
        start_gate.wait()
        deadline = started_at[0] + seconds
        position = 0
        while True:
            now = _clock()
            if now >= deadline:
                return
            traced = set_phase(now)
            index = position % len(stream)
            statement = stream[index]
            count = digest = 0
            server_s = error = None
            streamed = False
            began = _clock()
            try:
                if traced:
                    with tracer.statement(which * 10_000_000 + position, statement.sql):
                        result = execute(statement.sql)
                else:
                    result = execute(statement.sql)
                latency = _clock() - began
                count, digest = oracle.outcome_of(result, statement.ordered)
                if wire:
                    server_s = sum(result.timings.values())
                    streamed = result.streamed
            except Exception as exc:  # a failed statement is a counted outcome
                latency = _clock() - began
                error = f"{type(exc).__name__}: {exc}"
            out.append(Record(
                index, latency, count, digest, server_s, traced, streamed, error
            ))
            position += 1

    threads = [
        threading.Thread(target=loop, args=(i,), name=f"bench-client-{i}")
        for i in range(1, len(streams))
    ]
    for thread in threads:
        thread.start()
    loop(0)
    for thread in threads:
        thread.join()
    wall = _clock() - started_at[0]
    after = process_tree_usage(os.getpid())
    out = {
        "streams": records,
        "wall_s": wall,
        "peak_rss_mib": after["peak_rss_mib"],
        "children_cpu_s": after["children_cpu_s"] - before["children_cpu_s"],
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(trace_path)
        out["trace"] = {
            **tracer.self_times(),
            "counts": dict(tracer.counts),
            "samples": dict(tracer.samples),
            "missing": tracer.missing,
            # A traced run always holds the engine (the server is in-thread).
            "parallel": engine.stats_snapshot().get("parallel") or {},
        }
    return out


def main() -> None:
    """Child entry point (``run.Child`` starts it). The job arrives as the
    first message on stdin; replies leave on what was stdout, and fd 1 is
    pointed at stderr so that nothing the program prints can corrupt them."""
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    conn = Pipe(sys.stdin.buffer, replies)
    role, args = conn.recv()
    try:
        {"server": server_main, "runner": runner_main}[role](conn, *args)
    except (KeyboardInterrupt, EOFError):
        pass  # the orchestrator was interrupted or is gone; teardown ran
