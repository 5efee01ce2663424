"""Per-layer tracing from outside the program.

No span lives in ``src/``. For a traced run this module replaces the
public callables at each layer boundary (``WRAP_POINTS``, one table) with
timing wrappers, records a span ``(id, name, start, end, parent,
statement)`` per call in memory, and restores the originals afterwards. A
wrap point that no longer resolves is listed in ``Tracer.missing`` and
reported as ``layer_missing``; it never stops the run.

A span's parent is the innermost span open on its thread. The server runs
in-thread for a traced wire run, so one clock sees both sides; a span that
starts on a server thread with nothing open is adopted by the client span
waiting for the same SQL text.

A layer is a package of this repository; a span's layer is the part of its
name before the last dot. Self time is a span's duration less the part of
it its children cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

# How a wrap point is timed: the call itself, or (for the lock scopes,
# which return a context manager) only the wait to enter it.
CALL, ENTER = "call", "enter"

# (span name, module, attribute path, how, counter hook or None)
WRAP_POINTS: List[Tuple[str, str, str, str, Optional[str]]] = [
    ("sql.parse", "repro.sql.parser", "parse", CALL, None),
    ("sql.qgm", "repro.sql.qgm", "build_query_graph", CALL, None),
    ("jits.analysis", "repro.jits.analysis", "analyze_query", CALL, None),
    ("jits.sensitivity", "repro.jits.sensitivity", "SensitivityAnalyzer.analyze", CALL, None),
    ("jits.collect", "repro.jits.collection", "StatisticsCollector.collect", CALL, None),
    ("jits.tick", "repro.jits.controller", "JustInTimeStatistics.tick", CALL, None),
    ("optimizer.optimize", "repro.optimizer.optimizer", "Optimizer.optimize", CALL, None),
    ("engine.statement", "repro.engine.session", "Session.execute", CALL, "_count_statement"),
    ("engine.lock_wait", "repro.engine.locks", "LockManager.read_tables", ENTER, None),
    ("engine.lock_wait", "repro.engine.locks", "LockManager.write_tables", ENTER, None),
    ("engine.fetch", "repro.executor.executor", "ExecutionResult.rows", CALL, None),
    ("executor.execute", "repro.executor.executor", "PlanExecutor.execute", CALL, None),
    ("executor.parallel.dispatch", "repro.executor.parallel.manager", "ParallelScanManager.run_ranged", CALL, "_count_shards"),
    ("executor.parallel.dispatch", "repro.executor.parallel.manager", "ParallelScanManager.run_partitioned", CALL, "_count_shards"),
    ("executor.parallel.dispatch", "repro.executor.parallel.manager", "ParallelScanManager.scan_rows", CALL, None),
    ("executor.parallel.fragment", "repro.executor.parallel.manager", "ParallelScanManager.fragment_batch", CALL, "_count_fragment"),
    ("storage.publish", "repro.storage.table", "Table.publish_snapshot", CALL, "_count_publish"),
    ("storage.shm_export", "repro.storage.shm", "ShmRegistry.export", CALL, None),
    ("storage.sample", "repro.storage.sampling", "fixed_size_sample", CALL, None),
    ("server.encode", "repro.server.frames", "build_stream_frames", CALL, "_count_frames"),
    ("client.decode", "repro.server.frames", "StreamDecoder.feed", CALL, None),
    ("client.decode", "repro.server.frames", "StreamDecoder.drain_rows", CALL, None),
    ("client.execute", "repro.server.client", "Client.execute", CALL, None),
]

ROOT = "statement"  # the span the load generator opens around each execute()


def layer_of(name: str) -> str:
    if name == ROOT:
        return "harness"
    if name == "client.execute":
        return "wire"  # its self time: socket, JSON frames, waiting
    return name.rpartition(".")[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (id, name, start, end, parent, statement)
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # SQL text of statements in flight -> (statement id, client stack).
        self._inflight: Dict[str, Tuple[int, list]] = {}
        self._installed: List[Tuple[object, str, object]] = []
        self._last_chunks: Dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _frame(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []  # [(span id, statement id)]
            local.adopted = None
        return local

    def _open(self, name: str, sql: Optional[str] = None):
        local = self._frame()
        if local.stack:
            parent, statement = local.stack[-1]
        else:
            if sql is not None:
                # A server thread starting a statement: it belongs to the
                # client span waiting for this SQL, or (when that client
                # began before tracing was switched on) to nobody.
                live = self._inflight.get(sql)
                local.adopted = (live[1][-1][0], live[0]) if live and live[1] else None
            parent, statement = local.adopted or (0, -1)
        span_id = next(self._ids)
        local.stack.append((span_id, statement))
        return span_id, parent, statement, _clock()

    def _close(self, name: str, opened) -> None:
        end = _clock()
        span_id, parent, statement, start = opened
        self._local.stack.pop()
        self.spans.append((span_id, name, start, end, parent, statement))

    @contextmanager
    def statement(self, statement_id: int, sql: str):
        """The root span of one statement, opened by the load generator."""
        local = self._frame()
        span_id = next(self._ids)
        local.stack.append((span_id, statement_id))
        self._inflight[sql] = (statement_id, local.stack)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._inflight.pop(sql, None)
            local.stack.pop()
            self.spans.append((span_id, ROOT, start, end, 0, statement_id))

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, name: str, original: Callable, how: str, hook) -> Callable:
        tracer = self
        takes_sql = name == "engine.statement"

        if how == ENTER:
            def wrapper(*args, **kwargs):
                return _TimedEntry(tracer, name, original(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                sql = args[1] if takes_sql and len(args) > 1 else None
                opened = tracer._open(name, sql)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(name, opened)
                if hook is not None:
                    hook(args, result)
                return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Replace every wrap point that resolves; note those that do not."""
        self.missing = []
        for name, module_name, path, how, hook_name in WRAP_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            hook = getattr(self, hook_name) if hook_name else None
            wrapper = self._wrap(name, original, how, hook)
            targets = [owner]
            if not parents:
                # ``from x import f`` copies the reference: replace it in
                # every loaded module of the program that holds one.
                targets += [
                    module
                    for key, module in list(sys.modules.items())
                    if key.startswith("repro")
                    and module is not owner
                    and getattr(module, attribute, None) is original
                ]
            for target in targets:
                setattr(target, attribute, wrapper)
                self._installed.append((target, attribute, original))

    def uninstall(self) -> None:
        for target, attribute, original in reversed(self._installed):
            setattr(target, attribute, original)
        self._installed = []

    # ------------------------------------------------------------------
    # Counts taken at the same boundaries
    # ------------------------------------------------------------------
    def _count_statement(self, args, result) -> None:
        counts = self.counts
        if getattr(result, "statement_type", "") != "select":
            return
        counts["selects"] += 1
        counts["rows_returned"] += len(result.rows)
        report = result.jits_report
        if report is not None:
            counts["plan_cache_hits"] += bool(report.plan_cache_hit)
            collection = report.collection
            counts["collected"] += bool(collection.tables_sampled)
            counts["groups"] += collection.groups_computed
            counts["sample_hits"] += collection.sample_cache_hits
            counts["sample_misses"] += collection.sample_cache_misses
            counts["mask_hits"] += collection.mask_cache_hits
            counts["mask_misses"] += collection.mask_cache_misses
        self.samples["plan_cost"].append(result.modeled_execution_cost())
        for record in result.feedback:
            factor = record.errorfactor
            if factor > 0.0:
                self.samples["qerror"].append(max(factor, 1.0 / factor))
        pending = [result.plan] if result.plan is not None else []
        while pending:
            node = pending.pop()
            counts["rows_examined"] += getattr(node, "actual_base_rows", None) or 0
            pending.extend(node.children())

    def _count_shards(self, args, result) -> None:
        self.counts["shards"] += len(result)

    def _count_fragment(self, args, result) -> None:
        self.counts["fragments_attempted"] += 1
        self.counts["fragments_lowered"] += result is not None

    def _count_publish(self, args, snapshot) -> None:
        chunks = {
            name: [id(chunk) for chunk in column.chunks]
            for name, column in snapshot.columns.items()
        }
        before = self._last_chunks.get(id(args[0]))
        self._last_chunks[id(args[0])] = chunks
        if before is None or before == chunks:
            return  # first sight of the table, or nothing to publish
        self.counts["publishes"] += 1
        for name, ids in chunks.items():
            carried = set(before.get(name, ()))
            self.counts["chunks_total"] += len(ids)
            self.counts["chunks_copied"] += sum(i not in carried for i in ids)

    def _count_frames(self, args, result) -> None:
        header, payloads, _end = result
        self.counts["streamed_results"] += 1
        self.counts["streamed_rows"] += header["row_count"]
        self.counts["wire_bytes"] += sum(len(p) for p in payloads)
        self.counts["frames"] += len(payloads) + 2

    # ------------------------------------------------------------------
    # Self times
    # ------------------------------------------------------------------
    def self_times(self) -> dict:
        """Self seconds per statement and span name, each statement's root
        duration beside the sum over its tree, and calls per span name,
        over the spans that belong to a statement."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _id, _name, start, end, parent, _statement in self.spans:
            if parent:
                children[parent].append((start, end))
        per_statement: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        root_s: Dict[int, float] = {}
        calls: Counter = Counter()
        for span_id, name, start, end, _parent, statement in self.spans:
            if statement < 0:
                continue
            covered, cursor = 0.0, start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start, child_end = max(child_start, cursor), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            per_statement[statement][name] += (end - start) - covered
            calls[name] += 1
            if name == ROOT:
                root_s[statement] = end - start
        return {
            "per_statement": {k: dict(v) for k, v in per_statement.items()},
            "roots": {
                statement: (seconds, sum(per_statement[statement].values()))
                for statement, seconds in root_s.items()
            },
            "calls": dict(calls),
        }

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent, statement in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "statement": statement,
                }) + "\n")


class _TimedEntry:
    """Context-manager proxy whose ``__enter__`` is one span."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer, self._name, self._inner = tracer, name, inner

    def __enter__(self):
        opened = self._tracer._open(self._name)
        try:
            return self._inner.__enter__()
        finally:
            self._tracer._close(self._name, opened)

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)
