"""Client sessions: the unit of concurrent execution.

A :class:`Session` is one client's connection to the engine. Sessions
are cheap, single-threaded objects (one per client thread); the engine
they share is thread-safe. Each statement a session executes:

1. draws a unique logical timestamp from the engine's atomic clock,
2. takes its lock scope from the engine's
   :class:`~repro.engine.locks.LockManager` — SELECT and EXPLAIN take
   the database intent lock and pin one snapshot generation per table
   they reference, DML write-locks its target table (so writes to
   *disjoint* tables run concurrently), and DDL takes the database
   exclusively,
3. (writers) routes UDI activity through the session's private
   :class:`~repro.storage.table.UDIShard` and flushes it at the
   statement boundary while still holding the table write lock, so
   readers observe a statement's UDI deltas all-or-nothing.

Statistics stores (catalog, QSS archive, history, caches) are
RCU-published and deliberately *not* covered by the data locks: JITS
collection, feedback and migration may run on the reader path.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..cancel import CancelToken, cancel_scope
from ..errors import ReproError
from ..sql import ast, parse
from ..storage import udi_shard_scope, UDIShard
from .result import QueryResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine


class Session:
    """One client's view of a shared engine.

    Not thread-safe itself: a session belongs to exactly one client
    thread at a time. Concurrency comes from many sessions sharing one
    engine.
    """

    def __init__(self, engine: "Engine", session_id: int):
        self.engine = engine
        self.session_id = session_id
        self.shard = UDIShard()
        self.statements_executed = 0
        self.closed = False

    def close(self) -> None:
        """Retire the session; further statements are rejected."""
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise ReproError(f"session {self.session_id} is closed")

    # Statements whose writes stay within one named table: they take that
    # table's write lock. Everything else (DDL, index builds) changes the
    # database structure and runs database-exclusive.
    _DML_TYPES = (
        ast.InsertStatement,
        ast.UpdateStatement,
        ast.DeleteStatement,
    )

    def execute(
        self, sql: str, cancel: Optional[CancelToken] = None
    ) -> QueryResult:
        """Execute one SQL statement under its lock scope.

        ``cancel`` installs a cooperative cancellation token for the
        statement: once set, execution stops at the next morsel/operator
        boundary with :class:`~repro.errors.StatementCancelledError`,
        locks unwind, and the session stays usable.
        """
        self._check_open()
        engine = self.engine
        started = time.perf_counter()
        statement = parse(sql)
        parse_time = time.perf_counter() - started
        now = engine._clock.next()
        engine._statements.next()
        with cancel_scope(cancel):
            if isinstance(statement, ast.SelectStatement):
                tables = engine._statement_tables(statement)
                with engine.locks.read_tables(tables):
                    # The lock scope above is only the database intent
                    # lock; the statement's isolation comes from pinning
                    # one snapshot generation per table here (AS OF pins
                    # historical ones).
                    with engine.read_view(tables, statement.as_of) as pinned:
                        result = engine._execute_select(
                            statement, parse_time, now, pinned=pinned
                        )
            elif isinstance(statement, self._DML_TYPES):
                with engine.locks.write_tables((statement.table,)):
                    result = self._run_write(engine, statement, parse_time, now)
            else:
                with engine.locks.exclusive():
                    result = self._run_write(engine, statement, parse_time, now)
        self.statements_executed += 1
        return result

    def _run_write(self, engine, statement, parse_time: float, now: int):
        """Write-statement body; caller holds the statement's lock scope."""
        result = None
        try:
            with udi_shard_scope(self.shard):
                result = engine._dispatch_write(statement, parse_time, now)
        finally:
            # Flush inside the lock scope, also when the statement
            # failed: whatever it already applied to the data must
            # reach the UDI counters before readers run, and a
            # clean shard keeps the session usable afterwards.
            touched = self.shard.pending_tables()
            self.shard.flush()
            if touched:
                # Publish one MVCC snapshot generation per touched table
                # — still under the table write lock, so the publish
                # stamp (a fresh statement-clock draw) is monotone per
                # table and the generation becomes visible to readers
                # atomically with the lock release. Failed statements
                # publish too: whatever they applied is live, and the
                # snapshot chain must never diverge from the live data.
                stamp = engine._clock.next()
                published = {}
                for table in touched:
                    snap = table.publish_snapshot(stamp=stamp)
                    published[snap.name.lower()] = (snap.version, snap.stamp)
                if result is not None:
                    result.snapshots = published
        return result

    def execute_all(self, statements: Sequence[str]) -> List[QueryResult]:
        """Execute a client's statement stream in order."""
        return [self.execute(sql) for sql in statements]

    def explain(self, sql: str) -> str:
        """Plan text for a SELECT without executing it (reader side)."""
        self._check_open()
        engine = self.engine
        statement = parse(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise ReproError("EXPLAIN supports SELECT statements only")
        now = engine._clock.next()
        tables = engine._statement_tables(statement)
        with engine.locks.read_tables(tables):
            with engine.read_view(tables, statement.as_of):
                return engine._explain_select(statement, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(id={self.session_id}, "
            f"statements={self.statements_executed})"
        )
