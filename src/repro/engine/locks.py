"""Concurrency primitives for the multi-client engine.

Three building blocks back the session layer:

* :class:`AtomicCounter` — the engine's logical statement clock. Every
  statement draws a unique, monotonically increasing timestamp from it;
  under concurrency the draw order *is* the serialization order of the
  JITS bookkeeping (``now`` values never repeat or go backwards).
* :class:`RWLock` — a writer-preferring reader–writer lock, used both as
  the database *structure* lock and as each table's data lock.
* :class:`LockManager` — the two-level hierarchy the engine actually
  acquires through. Every statement first takes the database lock in a
  shared ("intent") mode; DML then write-locks its target tables in
  sorted name order, while readers stop there (they run on pinned
  immutable snapshots). Database-exclusive mode (DDL, statistics setup)
  takes only the database lock in write mode and therefore excludes
  every other statement.

Deadlock freedom: the database lock is always acquired before any table
lock, table locks are always acquired in sorted name order, and no code
path acquires a second batch of locks while holding a first — so the
wait-for graph cannot contain a cycle. Writer preference on the database
lock means a waiting exclusive operation cannot be starved by a stream
of per-table statements. Nothing here is reentrant — the engine acquires
exactly one lock scope per statement.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional


class AtomicCounter:
    """A monotone integer counter safe to bump from many threads."""

    __slots__ = ("_lock", "_value")

    def __init__(self, initial: int = 0):
        self._lock = threading.Lock()
        self._value = initial

    def next(self) -> int:
        """Increment and return the new value (a unique timestamp)."""
        with self._lock:
            self._value += 1
            return self._value

    def add(self, n: int) -> int:
        """Add ``n`` and return the new value."""
        with self._lock:
            self._value += n
            return self._value

    @property
    def value(self) -> int:
        return self._value


class RWLock:
    """A writer-preferring reader–writer lock.

    Any number of readers may hold the lock together; a writer holds it
    alone. A waiting writer blocks *new* readers, so writers cannot
    starve under read-heavy traffic. Not reentrant on either side.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Context managers
    # ------------------------------------------------------------------
    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class LockManager:
    """Two-level (database, table) lock hierarchy for statement execution.

    Scopes, from weakest to strongest:

    * :meth:`read_tables` — SELECT/EXPLAIN/RUNSTATS: database shared
      only. Readers operate on a pinned immutable
      :class:`~repro.storage.snapshot.TableSnapshot`, so they never block
      on, nor block, a writer; DDL still excludes them (the table *dict*
      is not versioned, only table contents are).
    * :meth:`write_tables` — DML: database shared + write locks on the
      target tables (sorted order). DML on *disjoint* tables runs
      concurrently; DML on the same table serializes.
    * :meth:`exclusive` — DDL and statistics setup: the database lock in
      write mode. Excludes every other statement, so cross-table
      invariants (the table dict itself, whole-database statistics
      passes) never see partial state.

    Table locks are only ever taken in write mode.
    """

    def __init__(self) -> None:
        # Database lock: shared ("intent") mode for per-table statements,
        # write mode for exclusive operations.
        self.database = RWLock()
        self._table_locks: Dict[str, RWLock] = {}
        self._registry = threading.Lock()

    def table_lock(self, name: str) -> RWLock:
        """The lock for one table, created on first use.

        Locks are keyed by lower-cased name and never discarded — a
        dropped-and-recreated table reuses its lock, which is harmless
        and keeps the registry race-free.
        """
        key = name.lower()
        lock = self._table_locks.get(key)
        if lock is None:
            with self._registry:
                lock = self._table_locks.setdefault(key, RWLock())
        return lock

    def _sorted_locks(self, names: Iterable[str]) -> List[RWLock]:
        return [self.table_lock(n) for n in sorted({n.lower() for n in names})]

    @contextmanager
    def read_tables(self, names: Optional[Iterable[str]]):
        """Reader scope over ``names``; ``None`` falls back to exclusive.

        The fallback covers statements whose table set cannot be
        determined before binding (unknown tables, odd FROM shapes) —
        they are about to raise a binding error anyway, and exclusive
        mode is always safe.
        """
        # The caller pins table snapshots, so no data lock is needed —
        # just exclude structural (DDL) changes.
        database = self.database
        scope = database.write_locked if names is None else database.read_locked
        with scope():
            yield

    @contextmanager
    def write_tables(self, names: Iterable[str]):
        """Writer scope over ``names`` (DML); sorted-order acquisition."""
        self.database.acquire_read()
        held: List[RWLock] = []
        try:
            for lock in self._sorted_locks(names):
                lock.acquire_write()
                held.append(lock)
            yield
        finally:
            for lock in reversed(held):
                lock.release_write()
            self.database.release_read()

    @contextmanager
    def exclusive(self):
        """Database-exclusive scope (DDL, RUNSTATS, statistics setup)."""
        with self.database.write_locked():
            yield
