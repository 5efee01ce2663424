"""The database: a named set of tables.

This is the engine's physical root object. The system catalog
(:mod:`repro.catalog`) holds *statistics about* these tables; the database
holds the tables themselves.

The table dict is not internally synchronized: the engine's
:class:`~repro.engine.locks.LockManager` guarantees that structural
mutations (create/drop table, CREATE INDEX) only run database-exclusive,
while per-table statements hold the database lock in shared mode — so a
statement's name lookups here never race a structural change.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional

from ..errors import CatalogError
from ..schema import TableSchema
from .snapshot import (
    DEFAULT_CHUNK_ROWS,
    DEFAULT_SNAPSHOT_RETENTION,
    TableSnapshot,
)
from .table import Table


class Database:
    """Named tables."""

    def __init__(
        self,
        name: str = "repro",
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        snapshot_retention: int = DEFAULT_SNAPSHOT_RETENTION,
    ):
        self.name = name
        self.chunk_rows = chunk_rows
        self.snapshot_retention = snapshot_retention
        self._tables: Dict[str, Table] = {}
        # Per-thread MVCC read view: while installed, name lookups for
        # the pinned tables resolve to their TableSnapshot generation —
        # the executor, optimizer, JITS sampling and parallel manager all
        # go through table()/indexes(), so one view covers the whole read
        # pipeline without threading snapshots through every call.
        self._view = threading.local()

    @contextmanager
    def read_view(self, snapshots: Mapping[str, TableSnapshot]):
        """Resolve this thread's lookups of the given tables to the given
        pinned generations for the duration of the scope. Nestable (the
        previous view is restored); unlisted tables resolve live."""
        previous = getattr(self._view, "snapshots", None)
        self._view.snapshots = snapshots
        try:
            yield
        finally:
            self._view.snapshots = previous

    def _viewed(self, key: str) -> Optional[TableSnapshot]:
        view = getattr(self._view, "snapshots", None)
        if view is None:
            return None
        return view.get(key)

    def create_table(self, schema: TableSchema) -> Table:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(
            schema,
            chunk_rows=self.chunk_rows,
            snapshot_retention=self.snapshot_retention,
        )
        self._tables[key] = table
        # Primary keys get a hash index automatically: that is what makes
        # PK-FK joins cheap, as in any real system.
        if schema.primary_key is not None:
            table.create_index("hash", schema.primary_key)
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        self._tables.pop(key).drop_generations()

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def live_table(self, name: str) -> Table:
        """The live table, ignoring any installed read view (the pinning
        code itself must see the mutable object, not a generation)."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def table(self, name: str):
        key = name.lower()
        viewed = self._viewed(key)
        if viewed is not None:
            return viewed
        try:
            return self._tables[key]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def indexes(self, name: str) -> TableSnapshot:
        """The generation whose indexes serve lookups on ``name``: the
        one this thread's read view pinned, else the table's current
        one."""
        viewed = self._viewed(name.lower())
        if viewed is not None:
            return viewed
        return self.live_table(name).current_snapshot

    def table_names(self) -> List[str]:
        return [t.schema.name for t in self._tables.values()]

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def total_rows(self) -> int:
        return sum(t.row_count for t in self._tables.values())

    def create_hash_index(self, table: str, column: str) -> None:
        self.live_table(table).create_index("hash", column)

    def create_sorted_index(self, table: str, column: str) -> None:
        self.live_table(table).create_index("sorted", column)
