"""In-memory columnar table with UDI (update/delete/insert) accounting.

The UDI counter is the data-activity signal used by the JITS sensitivity
analysis (paper Section 3.3.1): the counter grows monotonically with every
modified row; statistics consumers snapshot it at collection time and later
compare ``table.udi_total`` against their snapshot.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import StorageError
from ..schema import TableSchema
from ..types import Value
from .column import Column
from .snapshot import (
    DEFAULT_CHUNK_ROWS,
    DEFAULT_SNAPSHOT_RETENTION,
    TableSnapshot,
)


class UDIShard:
    """A per-worker accumulator of UDI deltas.

    Concurrent sessions never write ``Table.udi_total`` directly: each
    session installs its shard for the duration of one statement (via
    :func:`udi_shard_scope`), the table mutators deposit their row deltas
    into it, and the session flushes the shard at the statement boundary
    while still holding the target table's write lock. Statistics readers
    therefore see UDI totals move in statement-atomic steps, never a
    half-applied statement.
    """

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending: Dict["Table", int] = {}

    def add(self, table: "Table", rows: int) -> None:
        self._pending[table] = self._pending.get(table, 0) + rows

    def pending_tables(self) -> List["Table"]:
        """Tables holding unflushed deltas — the statement's publish set
        (the session publishes their snapshots right after flushing)."""
        return list(self._pending.keys())

    def flush(self) -> int:
        """Apply all pending deltas; returns total rows flushed."""
        total = 0
        for table, rows in self._pending.items():
            table.apply_udi(rows)
            total += rows
        self._pending.clear()
        return total

    def __len__(self) -> int:
        return len(self._pending)


_shard_slot = threading.local()


def active_udi_shard() -> Optional[UDIShard]:
    """The shard installed for the current thread, if any."""
    return getattr(_shard_slot, "shard", None)


@contextmanager
def udi_shard_scope(shard: UDIShard):
    """Route this thread's UDI accounting through ``shard``.

    The caller is responsible for flushing the shard afterwards (the
    session layer does so at statement boundaries, under the write lock).
    """
    previous = getattr(_shard_slot, "shard", None)
    _shard_slot.shard = shard
    try:
        yield shard
    finally:
        _shard_slot.shard = previous


class Table:
    """A named collection of equal-length columns."""

    def __init__(
        self,
        schema: TableSchema,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        snapshot_retention: int = DEFAULT_SNAPSHOT_RETENTION,
    ):
        self.schema = schema
        self.chunk_rows = max(1, chunk_rows)
        self.snapshot_retention = max(1, snapshot_retention)
        self.columns: Dict[str, Column] = {
            c.name.lower(): Column(c.name, c.dtype, chunk_rows=self.chunk_rows)
            for c in schema.columns
        }
        # Monotone counters; never reset. ``version`` is the publication
        # epoch: it moves exactly when a new TableSnapshot publishes (at
        # the statement boundary for engine DML, per mutation for direct
        # API callers), never mid-statement — so caches keyed on it can
        # only ever see published generations.
        self.udi_total = 0  # rows touched by any INSERT/UPDATE/DELETE
        self.version = 0
        # The declared secondary indexes as (kind, column) pairs; the
        # structures themselves live on the column generations (see
        # ColumnSnapshot.index). Replaced whole, never mutated, so a
        # reader's plain attribute load sees one set or the other.
        self.indexes: frozenset = frozenset()
        self._udi_lock = threading.Lock()
        # MVCC snapshot chain: the published generations, oldest first,
        # stamps non-decreasing. Guarded by _snap_lock (pin/unpin/publish
        # and retention trimming); _pending_mutations counts mutator calls
        # since the last publish.
        self._snap_lock = threading.Lock()
        self._pending_mutations = 0
        self._history: List[TableSnapshot] = []
        self._current: Optional[TableSnapshot] = None
        self.publish_snapshot(stamp=0)

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        first = next(iter(self.columns.values()))
        return len(first)

    def __len__(self) -> int:
        return self.row_count

    def column(self, name: str) -> Column:
        try:
            return self.columns[name.lower()]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def column_data(self, name: str) -> np.ndarray:
        """Physical (encoded) values of a column as a numpy view."""
        return self.column(name).data

    def create_index(self, kind: str, column: str) -> None:
        """Declare a ``kind`` ("hash" or "sorted") index on ``column``.

        Every generation of the table, pinned ones included, serves it
        from then on, each building its own structure on first use.
        Idempotent.
        """
        self.column(column)  # validate the column exists
        self.indexes = self.indexes | {(kind, column.lower())}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_row(self, values: Mapping[str, Value]) -> None:
        self.insert_rows([values])

    def insert_rows(self, rows: Sequence[Mapping[str, Value]]) -> None:
        """Insert dict-shaped rows; every column must be present."""
        if not rows:
            return
        names = self.schema.column_names()
        for row in rows:
            if len(row) != len(names):
                raise StorageError(
                    f"row has {len(row)} values, table {self.name!r} "
                    f"has {len(names)} columns"
                )
        encoded = []
        for name in names:
            col = self.column(name)
            try:
                values = [_row_get(row, name) for row in rows]
            except KeyError:
                raise StorageError(
                    f"row is missing column {name!r} of table {self.name!r}"
                ) from None
            encoded.append((col, col.encode_many(values)))
        # Every value checked before any is stored: a rejected row leaves
        # the columns as they were, all of one length.
        for col, physical in encoded:
            col.extend_physical(physical)
        self._record_mutation(len(rows))

    def insert_columns(self, data: Mapping[str, Sequence[Value]]) -> None:
        """Bulk insert from column-oriented data (used by generators)."""
        names = {n.lower() for n in data}
        expected = {n.lower() for n in self.schema.column_names()}
        if names != expected:
            raise StorageError(
                f"column set mismatch for {self.name!r}: "
                f"got {sorted(names)}, expected {sorted(expected)}"
            )
        lengths = {len(v) for v in data.values()}
        if len(lengths) > 1:
            raise StorageError("insert_columns requires equal-length columns")
        n = lengths.pop() if lengths else 0
        if n == 0:
            return
        encoded = []
        for name, values in data.items():
            col = self.column(name)
            if not (isinstance(values, np.ndarray) and col.dictionary is None):
                values = col.encode_many(list(values))
            encoded.append((col, values))
        for col, physical in encoded:
            col.extend_physical(physical)
        self._record_mutation(n)

    def update_rows(self, rows: np.ndarray, assignments: Mapping[str, Value]) -> None:
        """Set ``column = value`` for each row position in ``rows``."""
        if len(rows) == 0:
            return
        for name, value in assignments.items():
            self.column(name).set_at(rows, value)
        self._record_mutation(len(rows))

    def apply_update(
        self, rows: np.ndarray, physical: Mapping[str, np.ndarray]
    ) -> None:
        """Set per-row *physical* values (used by UPDATE ... SET expr).

        Callers are responsible for encoding string values through the
        column's own dictionary; the engine's expression evaluator does.
        """
        if len(rows) == 0:
            return
        for name, values in physical.items():
            col = self.column(name)
            if len(values) != len(rows):
                raise StorageError("update value/row count mismatch")
            col.set_physical(rows, values)
        self._record_mutation(len(rows))

    def delete_rows(self, rows: np.ndarray) -> int:
        """Delete the given row positions; returns the number deleted."""
        n = self.row_count
        if len(rows) == 0:
            return 0
        keep = np.ones(n, dtype=bool)
        keep[rows] = False
        deleted = int(n - keep.sum())
        for col in self.columns.values():
            col.delete_rows(keep)
        self._record_mutation(deleted)
        return deleted

    # ------------------------------------------------------------------
    # Read helpers
    # ------------------------------------------------------------------
    def fetch_rows(
        self, rows: Optional[np.ndarray], columns: Iterable[str]
    ) -> List[tuple]:
        """Decode the requested rows/columns back to Python tuples."""
        decoded = [self.column(c).logical_values(rows) for c in columns]
        return list(zip(*decoded)) if decoded else []

    def udi_since(self, snapshot: int) -> int:
        """Rows modified since a ``udi_total`` snapshot."""
        return self.udi_total - snapshot

    # ------------------------------------------------------------------
    # UDI accounting
    # ------------------------------------------------------------------
    def _record_mutation(self, rows: int) -> None:
        """Account ``rows`` of UDI activity for the current statement.

        The version bump does NOT land here: it moved into
        :meth:`publish_snapshot`, so a statement that crashes mid-flight
        can never leave caches keyed to a version that was never
        published. With a session shard installed the UDI delta and the
        publish are both deferred to the statement boundary (the session
        flushes, then publishes, while still holding the table write
        lock); direct API callers — test fixtures, generators — publish
        immediately, preserving the historical bump-per-mutation
        semantics for code that never goes through a session.
        """
        self._pending_mutations += 1
        shard = active_udi_shard()
        if shard is not None:
            shard.add(self, rows)
        else:
            self.apply_udi(rows)
            self.publish_snapshot()

    def apply_udi(self, rows: int) -> None:
        """Fold a UDI delta into the monotone total."""
        with self._udi_lock:
            self.udi_total += rows

    # ------------------------------------------------------------------
    # MVCC snapshot chain
    # ------------------------------------------------------------------
    def publish_snapshot(self, stamp: Optional[int] = None) -> TableSnapshot:
        """Publish the current content as an immutable generation.

        No-op (returns the current snapshot) when nothing mutated since
        the last publish. ``stamp`` is the engine statement clock drawn
        at publish time; ``None`` (direct API callers without an engine)
        reuses the previous stamp, so setup-time bulk loads stay below
        every engine-issued clock value. Stamps are clamped monotone:
        DML on one table serializes on its write lock, so publish order
        is execution order, and the history stays sorted by stamp.
        """
        with self._snap_lock:
            current = self._current
            if current is not None and self._pending_mutations == 0:
                return current
            if current is not None:
                self.version += 1
            last_stamp = current.stamp if current is not None else 0
            if stamp is None:
                stamp = last_stamp
            stamp = max(stamp, last_stamp)
            snapshot = TableSnapshot(
                self,
                {name: col.snapshot() for name, col in self.columns.items()},
                version=self.version,
                stamp=stamp,
                udi_total=self.udi_total,
                row_count=self.row_count,
            )
            self._pending_mutations = 0
            self._history.append(snapshot)
            self._current = snapshot
            self._trim_locked()
            return snapshot

    def _trim_locked(self) -> None:
        """Drop the oldest unpinned generations beyond the retention
        window. Pinned generations (and the current one) are never
        dropped — the refcount is the GC soundness guarantee."""
        excess = len(self._history) - self.snapshot_retention
        if excess <= 0:
            return
        kept: List[TableSnapshot] = []
        for snap in self._history:
            if excess > 0 and snap.pins == 0 and snap is not self._current:
                excess -= 1
                continue
            kept.append(snap)
        self._history = kept

    def drop_generations(self) -> None:
        """Forget every unpinned generation, the current one included
        (DROP TABLE). A generation refers back to its table, so without
        this a dropped table and its arrays (and their shared-memory
        segments) would wait for the cyclic collector; with it, the last
        reference frees them. A pinned generation stays until released.
        """
        with self._snap_lock:
            self._history = [snap for snap in self._history if snap.pins]
            self._current = None

    @property
    def current_snapshot(self) -> TableSnapshot:
        with self._snap_lock:
            return self._current

    @property
    def snapshot_stamp(self) -> int:
        """Statement clock of the newest published generation."""
        with self._snap_lock:
            return self._current.stamp

    def snapshots(self) -> List[TableSnapshot]:
        """The retained generations, oldest first (introspection)."""
        with self._snap_lock:
            return list(self._history)

    def pin_current(self) -> TableSnapshot:
        """Pin the newest published generation (reader statement start)."""
        with self._snap_lock:
            snap = self._current
            snap.pins += 1
            return snap

    def pin_as_of(self, stamp: int) -> TableSnapshot:
        """Pin the newest generation published at or before ``stamp``.

        Raises :class:`StorageError` when the retention window no longer
        holds a generation that old (or ``stamp`` predates the table).
        """
        with self._snap_lock:
            for snap in reversed(self._history):
                if snap.stamp <= stamp:
                    snap.pins += 1
                    return snap
        raise StorageError(
            f"no snapshot of table {self.name!r} at or before statement "
            f"clock {stamp} is retained (retention window "
            f"{self.snapshot_retention})"
        )

    def unpin(self, snapshot: TableSnapshot) -> None:
        """Release one pin; an unpinned generation outside the retention
        window is dropped on the next publish."""
        with self._snap_lock:
            snapshot.pins = max(0, snapshot.pins - 1)


def _row_get(row: Mapping[str, Value], name: str) -> Value:
    """Case-insensitive dict access for row mappings."""
    if name in row:
        return row[name]
    lowered = name.lower()
    for key, value in row.items():
        if key.lower() == lowered:
            return value
    raise KeyError(name)
