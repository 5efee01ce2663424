"""The engine facade: the full compile/execute pipeline of Figure 1.

``Engine.execute(sql)`` runs parse -> rewrite -> bind (QGM) -> JITS
(query analysis, sensitivity analysis, statistics collection) -> plan
generation & costing -> execution -> fetch -> feedback -> migration tick,
and reports wall-clock time per phase exactly the way the paper's Table 3
does (compilation / execution / fetch).

The engine is thread-safe and serves many clients at once. Each client
holds a :class:`~repro.engine.session.Session` (``engine.session()``);
``engine.execute(sql)`` runs on a built-in default session for
single-client use. Readers (SELECT, EXPLAIN, RUNSTATS) pin one immutable
snapshot generation per table and take only the database intent lock;
writers serialize per table (:class:`~repro.engine.locks.LockManager`),
DDL and whole-database statistics set-up run database-exclusive, and the
statistics stores are RCU-published, so the optimizer's statistics reads
are lock-free — see the README's concurrency-model section.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..catalog import (
    SystemCatalog,
    collect_workload_statistics,
    run_runstats,
)
from ..errors import BindingError, ConfigError, ExecutionError, ReproError
from ..executor import PlanExecutor, collect_feedback
from ..executor.executor import matching_rows
from ..executor.expr import eval_expr
from ..executor.parallel import ParallelScanManager
from ..executor.vector import batch_from_table
from ..jits import (
    CompilationReport,
    JustInTimeStatistics,
    analyze_query,
    table_stats_epoch,
)
from ..optimizer import Optimizer, StatsContext
from ..rng import make_rng
from ..schema import ColumnDef, TableSchema
from ..sql import ast, build_query_graph, parse
from ..sql.qgm import QueryBlock
from ..storage import Database, TableSnapshot
from ..types import DataType
from .config import EngineConfig, StatsMode
from .locks import AtomicCounter, LockManager
from .plancache import PLAN_STALENESS, PlanCache
from .result import PHASE_COMPILE, PHASE_EXECUTE, PHASE_FETCH, QueryResult
from .session import Session


class Engine:
    """One database engine instance."""

    def __init__(
        self,
        database: Optional[Database] = None,
        config: Optional[EngineConfig] = None,
    ):
        self.database = database if database is not None else Database()
        self.config = config or EngineConfig.traditional()
        self.catalog = SystemCatalog()
        self.rng = make_rng(self.config.seed)
        # Process-parallel scan machinery.
        self.parallel: Optional[ParallelScanManager] = (
            ParallelScanManager(
                workers=self.config.scan_workers,
                threshold_rows=self.config.parallel_threshold_rows,
            )
            if self.config.scan_workers > 0
            else None
        )
        self.jits = JustInTimeStatistics(
            self.database, self.catalog, self.config.jits, self.rng
        )
        self.plan_cache: Optional[PlanCache] = (
            PlanCache() if self.config.plan_cache_enabled else None
        )
        # Logical statement clock: every statement draws a unique,
        # monotone timestamp; the draw order is the serialization order
        # of the JITS bookkeeping.
        self._clock = AtomicCounter()
        self._statements = AtomicCounter()
        self._session_ids = AtomicCounter()
        # Two-level lock hierarchy: database intent lock + per-table
        # write locks. Readers take the intent lock only, DML write-locks
        # its target, DDL and statistics set-up take the database
        # exclusively.
        self.locks = LockManager()
        self._default_session = Session(self, session_id=0)

    @property
    def clock(self) -> int:
        """Current logical statement timestamp (monotone)."""
        return self._clock.value

    @property
    def statements_executed(self) -> int:
        return self._statements.value

    # ------------------------------------------------------------------
    # MVCC read views
    # ------------------------------------------------------------------
    @contextmanager
    def read_view(
        self,
        tables: Optional[Iterable[str]],
        as_of: Optional[int] = None,
    ):
        """Pin one snapshot generation per table for a reader statement.

        Yields ``{name: TableSnapshot}`` (or ``None`` when the table set
        is unknown — the statement is about to fail binding, under the
        exclusive lock ``read_tables(None)`` took). While the scope is
        active the current thread's ``database.table()`` lookups resolve to the
        pinned generations, so the whole read pipeline — binder, JITS
        sampling, optimizer, executor, parallel scans — observes one
        immutable statement-consistent state. ``as_of`` pins, per table,
        the newest generation whose publish stamp is <= the given
        statement clock (time travel); pinned generations are refcounted
        and released on exit.
        """
        if tables is None:
            if as_of is not None:
                raise ExecutionError("AS OF requires a resolvable table set")
            yield None
            return
        pinned: Dict[str, TableSnapshot] = {}
        try:
            for name in tables:
                live = self.database.live_table(name)
                pinned[name.lower()] = (
                    live.pin_current()
                    if as_of is None
                    else live.pin_as_of(as_of)
                )
            with self.database.read_view(pinned):
                yield pinned
        finally:
            for snap in pinned.values():
                snap.release()

    # ------------------------------------------------------------------
    # Sessions and statement dispatch
    # ------------------------------------------------------------------
    def session(self) -> Session:
        """A new client session; one per concurrent client thread."""
        return Session(self, self._session_ids.next())

    def shutdown(self) -> None:
        """Release external resources (worker pool, shared memory).

        Idempotent; also runs via atexit hooks inside the parallel
        manager, but tests and long-lived embedders should call it so
        /dev/shm segments are unlinked promptly.
        """
        if self.parallel is not None:
            self.parallel.close()

    def execute(self, sql: str) -> QueryResult:
        """Execute one SQL statement and report per-phase timings.

        Runs on the engine's built-in default session; concurrent
        clients should each call :meth:`session` instead.
        """
        return self._default_session.execute(sql)

    def execute_many(
        self,
        statements: Sequence[str],
        workers: Optional[int] = None,
    ) -> List[QueryResult]:
        """Execute independent statements across a thread pool.

        Each statement is one client request; results come back aligned
        with the input order. Each worker thread runs its own session,
        so UDI shards never interleave within a statement.
        """
        if not statements:
            return []
        workers = self._resolve_workers(workers)
        if workers <= 1 or len(statements) <= 1:
            return [self.execute(sql) for sql in statements]
        thread_state = threading.local()

        def run(indexed: Tuple[int, str]) -> Tuple[int, QueryResult]:
            index, sql = indexed
            session = getattr(thread_state, "session", None)
            if session is None:
                session = self.session()
                thread_state.session = session
            return index, session.execute(sql)

        results: List[Optional[QueryResult]] = [None] * len(statements)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for index, result in pool.map(run, enumerate(statements)):
                results[index] = result
        return results  # type: ignore[return-value]

    def execute_streams(
        self,
        streams: Sequence[Sequence[str]],
        workers: Optional[int] = None,
    ) -> List[List[QueryResult]]:
        """Execute per-client statement streams concurrently.

        Every stream keeps its internal order (it runs on one session);
        different streams interleave. Returns one result list per
        stream, aligned with the input.
        """
        if not streams:
            return []
        workers = self._resolve_workers(workers, default=len(streams))
        if workers <= 1 or len(streams) <= 1:
            return [self.session().execute_all(s) for s in streams]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(
                pool.map(lambda s: self.session().execute_all(s), streams)
            )

    def _resolve_workers(
        self, workers: Optional[int], default: Optional[int] = None
    ) -> int:
        if workers is None:
            workers = (
                default
                if default is not None
                else self.config.default_workers
            )
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        return workers

    def _dispatch_write(
        self, statement: ast.Statement, parse_time: float, now: int
    ) -> QueryResult:
        """Run a non-SELECT statement. Caller holds its lock scope."""
        if isinstance(statement, ast.InsertStatement):
            return self._execute_insert(statement, parse_time)
        if isinstance(statement, ast.UpdateStatement):
            return self._execute_update(statement, parse_time)
        if isinstance(statement, ast.DeleteStatement):
            return self._execute_delete(statement, parse_time)
        if isinstance(statement, ast.CreateTableStatement):
            return self._execute_create_table(statement, parse_time)
        if isinstance(statement, ast.DropTableStatement):
            self.database.drop_table(statement.table)
            self.catalog.clear_table(statement.table)
            self.jits.drop_table(statement.table)
            if self.plan_cache is not None:
                self.plan_cache.drop_table(statement.table)
            if self.parallel is not None:
                self.parallel.release_table(statement.table)
            return QueryResult(
                statement_type="ddl", timings={PHASE_COMPILE: parse_time}
            )
        if isinstance(statement, ast.CreateIndexStatement):
            if statement.kind == "sorted":
                self.database.create_sorted_index(statement.table, statement.column)
            else:
                self.database.create_hash_index(statement.table, statement.column)
            # New access paths change what the optimizer would pick.
            if self.plan_cache is not None:
                self.plan_cache.clear()
            return QueryResult(
                statement_type="ddl", timings={PHASE_COMPILE: parse_time}
            )
        raise ReproError(f"unsupported statement {type(statement).__name__}")

    def explain(self, sql: str) -> str:
        """Plan text for a SELECT without executing it."""
        return self._default_session.explain(sql)

    def _stats_epochs(self) -> Tuple[int, int, int, int]:
        """The (catalog, archive, history, residual) publication epochs."""
        jits = self.jits
        return (
            self.catalog.version,
            jits.archive.version,
            jits.history.version,
            jits.residual_store.version,
        )

    def stats_snapshot(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of engine/JITS counters.

        Reads one consistent RCU epoch: the statistics stores publish
        immutable snapshots, so this seqlock-style loop — read the epoch
        tuple, build, re-read, retry if any store published meanwhile —
        never returns a torn view across archive/history/catalog. Under
        sustained writes it falls back to the last attempt rather than
        spinning forever.
        """
        for _ in range(8):
            before = self._stats_epochs()
            snapshot = self._build_stats_snapshot()
            if self._stats_epochs() == before:
                break
        return snapshot

    def _build_stats_snapshot(self) -> Dict[str, object]:
        jits = self.jits
        snapshot: Dict[str, object] = {
            "engine": {
                "statements_executed": self.statements_executed,
                "clock": self.clock,
            },
            "tables": {
                table.name: table.row_count
                for table in self.database.tables()
            },
            "jits": {
                "enabled": jits.config.enabled,
                "s_max": jits.config.s_max,
                "collections": jits.total_collections,
                "archive_histograms": len(jits.archive),
                "archive_cells": jits.archive.total_cells,
                "history_entries": len(jits.history),
                "residual_stats": len(jits.residual_store),
                "migrations": jits.total_migrations,
                "deferred_recalibrations": jits.archive.deferred_recalibrations,
            },
            "sample_cache": {
                "hits": jits.sample_cache.hits,
                "misses": jits.sample_cache.misses,
                "invalidations": jits.sample_cache.invalidations,
            },
            "mask_cache": {
                "hits": jits.mask_cache.hits,
                "misses": jits.mask_cache.misses,
                "entries": len(jits.mask_cache),
            },
        }
        if self.plan_cache is not None:
            cache = self.plan_cache
            snapshot["plan_cache"] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "invalidations": cache.invalidations,
                "plans": len(cache),
            }
        if self.parallel is not None:
            snapshot["parallel"] = self.parallel.stats()
        return snapshot

    def _explain_select(self, statement: ast.SelectStatement, now: int) -> str:
        """EXPLAIN pipeline. Caller holds the read scope."""
        block = build_query_graph(statement, self.database)
        if statement.as_of is not None:
            profile = None  # time travel: no JITS collection (see SELECT)
        else:
            profile, _ = self.jits.before_optimize(block, now)
        optimized = Optimizer(self._stats_context(profile, now)).optimize(block)
        return optimized.explain()

    # ------------------------------------------------------------------
    # SELECT pipeline
    # ------------------------------------------------------------------
    def _stats_context(self, profile, now: int) -> StatsContext:
        # Pin one catalog epoch for the whole compilation: estimation
        # reads hit the immutable snapshot (plain attribute loads), and a
        # concurrent migration/RUNSTATS publishing mid-optimize cannot
        # show this query a mix of old and new statistics.
        return StatsContext(
            database=self.database,
            catalog=self.catalog.snapshot(),
            profile=profile,
            archive=self.jits.archive if self.config.jits.enabled else None,
            residuals=(
                self.jits.residual_store if self.config.jits.enabled else None
            ),
            now=now,
        )

    def _statement_tables(
        self, statement: ast.SelectStatement
    ) -> Optional[Tuple[str, ...]]:
        """Every base table under a SELECT, or None if one is unknown."""
        names: List[str] = []
        stack: List[ast.SelectStatement] = [statement]
        while stack:
            select = stack.pop()
            for item in select.from_items:
                if isinstance(item, ast.TableRef):
                    name = item.name.lower()
                    if not self.database.has_table(name):
                        return None
                    names.append(name)
                elif isinstance(item, ast.DerivedTable):
                    stack.append(item.select)
                else:  # unknown FROM shape: treat as uncacheable
                    return None
        return tuple(sorted(set(names)))

    def _plan_fingerprint(self, tables: Tuple[str, ...]) -> Tuple:
        """Statistics the optimizer would consume for these tables, coarsened
        to epochs: the cached plan stays valid until one of them moves."""
        parts: List[Tuple] = [("catalog", self.catalog.version)]
        if self.config.jits.enabled:
            parts.append(("archive", self.jits.archive.version))
        for name in tables:
            table = self.database.table(name)
            step = int(PLAN_STALENESS * max(table.row_count, 1))
            parts.append((name, table_stats_epoch(table, step)))
        return tuple(parts)

    def _execute_select(
        self,
        statement: ast.SelectStatement,
        parse_time: float,
        now: int,
        pinned: Optional[Dict[str, TableSnapshot]] = None,
    ) -> QueryResult:
        """SELECT pipeline. Caller holds the read scope and has installed
        the pinned read view this thread resolves through."""
        time_travel = statement.as_of is not None
        compile_started = time.perf_counter()
        optimized = None
        template = fingerprint = tables = None
        if self.plan_cache is not None and not time_travel:
            # AST nodes are plain dataclasses, so repr() is a value-based
            # normal form of the parsed query — the cache template.
            # Time-travel queries never touch the cache: their plans are
            # costed against a historical generation.
            tables = self._statement_tables(statement)
            if tables is not None:
                template = repr(statement)
                fingerprint = self._plan_fingerprint(tables)
                optimized = self.plan_cache.lookup(template, fingerprint)
        if optimized is not None:
            # Fast path: the statistics this plan was costed with have not
            # moved, so the QGM/JITS/optimizer pipeline is skipped entirely.
            jits_report = CompilationReport(plan_cache_hit=True)
        else:
            block = build_query_graph(statement, self.database)
            if time_travel:
                # Historical reads bypass the JITS pipeline entirely: the
                # stats stores describe the *current* data, and a query
                # over an old generation must neither consume nor pollute
                # them (no collection, no feedback, no migration tick).
                profile, jits_report = None, CompilationReport()
            else:
                profile, jits_report = self.jits.before_optimize(block, now)
            optimized = Optimizer(self._stats_context(profile, now)).optimize(block)
            if self.plan_cache is not None and template is not None:
                # Re-fingerprint after compiling: collection may have bumped
                # the catalog/archive versions, and the plan reflects that.
                self.plan_cache.store(
                    template, self._plan_fingerprint(tables), optimized, tables
                )
        if template is not None:
            # The cached plan object is shared between every statement that
            # hits (or just stored) it; the executor annotates plan nodes
            # with actual cardinalities, so each execution runs against a
            # private node tree.
            optimized = optimized.clone_for_execution()
        compile_time = parse_time + (time.perf_counter() - compile_started)

        execute_started = time.perf_counter()
        execution = PlanExecutor(
            self.database, parallel=self.parallel
        ).execute(optimized)
        execute_time = time.perf_counter() - execute_started

        if time_travel:
            # No feedback from the past: cardinalities observed against a
            # historical generation would corrupt StatHistory for the
            # current data.
            feedback = []
        else:
            feedback = collect_feedback(optimized, execution)
            self.jits.after_execute(feedback, now)
            self.jits.tick(now)

        return QueryResult(
            statement_type="select",
            columns=execution.output_names,
            timings={
                PHASE_COMPILE: compile_time,
                PHASE_EXECUTE: execute_time,
                # Grows when ``rows`` is first read; a streamed result
                # never decodes tuples on the server at all.
                PHASE_FETCH: 0.0,
            },
            plan=optimized.root,
            jits_report=jits_report,
            feedback=feedback,
            execution=execution,
            snapshots=(
                {
                    name: (snap.version, snap.stamp)
                    for name, snap in pinned.items()
                }
                if pinned is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _execute_insert(
        self, statement: ast.InsertStatement, parse_time: float
    ) -> QueryResult:
        table = self.database.table(statement.table)
        names = (
            [c.lower() for c in statement.columns]
            if statement.columns is not None
            else [c.lower() for c in table.schema.column_names()]
        )
        started = time.perf_counter()
        rows = []
        for literals in statement.rows:
            if len(literals) != len(names):
                raise BindingError(
                    f"INSERT row has {len(literals)} values for {len(names)} columns"
                )
            rows.append({n: l.value for n, l in zip(names, literals)})
        table.insert_rows(rows)
        return QueryResult(
            statement_type="insert",
            affected_rows=len(rows),
            timings={
                PHASE_COMPILE: parse_time,
                PHASE_EXECUTE: time.perf_counter() - started,
            },
        )

    def _dml_target_rows(
        self, table_name: str, where: Optional[ast.BoolExpr]
    ) -> Tuple[np.ndarray, QueryBlock]:
        """Row positions matching a DML WHERE clause."""
        select = ast.SelectStatement(
            items=[],
            from_items=[ast.TableRef(name=table_name)],
            star=True,
            where=where,
        )
        block = build_query_graph(select, self.database)
        alias = next(iter(block.quantifiers))
        rows = matching_rows(
            self.database.table(table_name),
            alias,
            block.local_predicates_for(alias),
            block.scan_residuals.get(alias, []),
            self.parallel,
        )
        return rows, block

    def _execute_update(
        self, statement: ast.UpdateStatement, parse_time: float
    ) -> QueryResult:
        compile_started = time.perf_counter()
        table = self.database.table(statement.table)
        rows, block = self._dml_target_rows(statement.table, statement.where)
        alias = next(iter(block.quantifiers))
        compile_time = parse_time + (time.perf_counter() - compile_started)

        started = time.perf_counter()
        if len(rows):
            batch = batch_from_table(table, alias, rows)
            physical: Dict[str, np.ndarray] = {}
            binder_visible = {
                c.name.lower(): c.dtype for c in table.schema.columns
            }
            for column, expr in statement.assignments:
                column = column.lower()
                if column not in binder_visible:
                    raise BindingError(
                        f"unknown column {column!r} in UPDATE {table.name}"
                    )
                qualified = _qualify_for_alias(expr, alias, binder_visible)
                vector = eval_expr(qualified, batch)
                physical[column] = self._coerce_assignment(table, column, vector)
            table.apply_update(rows, physical)
        return QueryResult(
            statement_type="update",
            affected_rows=len(rows),
            timings={
                PHASE_COMPILE: compile_time,
                PHASE_EXECUTE: time.perf_counter() - started,
            },
        )

    def _coerce_assignment(self, table, column: str, vector) -> np.ndarray:
        target = table.column(column)
        if target.dtype is DataType.STRING:
            if vector.dictionary is None:
                raise ExecutionError(
                    f"assigning numeric value to string column {column!r}"
                )
            if vector.dictionary is target.dictionary:
                return vector.values
            return np.array(
                [target.dictionary.encode(v) for v in vector.decode()],
                dtype=np.int64,
            )
        if vector.dtype is DataType.STRING:
            raise ExecutionError(
                f"assigning string value to numeric column {column!r}"
            )
        if target.dtype is DataType.INT:
            return np.round(vector.values).astype(np.int64)
        return vector.values.astype(np.float64)

    def _execute_delete(
        self, statement: ast.DeleteStatement, parse_time: float
    ) -> QueryResult:
        compile_started = time.perf_counter()
        table = self.database.table(statement.table)
        rows, _ = self._dml_target_rows(statement.table, statement.where)
        compile_time = parse_time + (time.perf_counter() - compile_started)
        started = time.perf_counter()
        deleted = table.delete_rows(rows)
        return QueryResult(
            statement_type="delete",
            affected_rows=deleted,
            timings={
                PHASE_COMPILE: compile_time,
                PHASE_EXECUTE: time.perf_counter() - started,
            },
        )

    def _execute_create_table(
        self, statement: ast.CreateTableStatement, parse_time: float
    ) -> QueryResult:
        schema = TableSchema(
            name=statement.table,
            columns=[ColumnDef(c.name, c.dtype) for c in statement.columns],
            primary_key=statement.primary_key,
        )
        self.database.create_table(schema)
        return QueryResult(
            statement_type="ddl", timings={PHASE_COMPILE: parse_time}
        )

    # ------------------------------------------------------------------
    # Statistics setup (experiment settings)
    # ------------------------------------------------------------------
    def collect_general_statistics(
        self, tables: Optional[Sequence[str]] = None
    ) -> float:
        """RUNSTATS on all (or the given) tables; returns elapsed seconds.

        This is a *reader*: it pins one snapshot generation per table and
        scans that, so statistics collection neither excludes nor waits
        for concurrent DML — the catalog it publishes describes the
        pinned generation, which staleness tracking already handles.
        """
        names = tuple(
            tables if tables is not None else self.database.table_names()
        )
        with self.locks.read_tables(names):
            with self.read_view(names):
                return self._collect_general_statistics_locked(names)

    def _collect_general_statistics_locked(
        self, tables: Optional[Sequence[str]] = None
    ) -> float:
        started = time.perf_counter()
        names = tables if tables is not None else self.database.table_names()
        now = self._clock.next()
        for name in names:
            run_runstats(
                self.database,
                self.catalog,
                name,
                now=now,
                parallel=self.parallel,
            )
        return time.perf_counter() - started

    def collect_workload_column_groups(
        self, statements: Sequence[str]
    ) -> Tuple[int, float]:
        """Analyze a workload and pre-build all its column-group statistics.

        This reproduces experiment setting 3 ("workload stats"): every
        column group occurring in any query gets a multi-dimensional
        histogram, built from the full data, once, up front.
        """
        with self.locks.exclusive():
            return self._collect_workload_column_groups_locked(statements)

    def _collect_workload_column_groups_locked(
        self, statements: Sequence[str]
    ) -> Tuple[int, float]:
        started = time.perf_counter()
        groups: List[Tuple[str, Tuple[str, ...]]] = []
        for sql in statements:
            statement = parse(sql)
            if not isinstance(statement, ast.SelectStatement):
                continue
            try:
                block = build_query_graph(statement, self.database)
            except ReproError:
                continue
            for candidate in analyze_query(block):
                for group in candidate.groups:
                    columns = group.columns()
                    if len(columns) >= 2:
                        groups.append((candidate.table, columns))
        now = self._clock.next()
        built = collect_workload_statistics(
            self.database, self.catalog, groups, now=now
        )
        return built, time.perf_counter() - started

    def apply_stats_mode(
        self, mode: StatsMode, workload: Sequence[str] = ()
    ) -> None:
        """Set up initial statistics per the paper's experiment settings."""
        if mode is StatsMode.NONE:
            return
        # One exclusive span for the whole setup (the lock is not
        # reentrant, so the locked helpers are called directly).
        with self.locks.exclusive():
            self._collect_general_statistics_locked()
            if mode is StatsMode.WORKLOAD:
                self._collect_workload_column_groups_locked(workload)


def _qualify_for_alias(
    expr: ast.Expr, alias: str, visible: Dict[str, DataType]
) -> ast.Expr:
    """Qualify bare column refs in UPDATE expressions with the table alias."""
    if isinstance(expr, ast.ColumnRef):
        name = expr.name.lower()
        if name not in visible:
            raise BindingError(f"unknown column {expr.name!r}")
        return ast.ColumnRef(name=name, qualifier=alias)
    if isinstance(expr, ast.BinaryArith):
        return ast.BinaryArith(
            op=expr.op,
            left=_qualify_for_alias(expr.left, alias, visible),
            right=_qualify_for_alias(expr.right, alias, visible),
        )
    if isinstance(expr, ast.UnaryArith):
        return ast.UnaryArith(
            op=expr.op, operand=_qualify_for_alias(expr.operand, alias, visible)
        )
    return expr
