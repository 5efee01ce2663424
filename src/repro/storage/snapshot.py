"""MVCC column snapshots: immutable, epoch-stamped table versions.

This module extends the RCU pattern the statistics stores already use
(archive/history/catalog publish immutable snapshots; readers load one
epoch with a plain attribute read) to the data columns themselves:

* A :class:`ColumnSnapshot` is an immutable view of one column at one
  publication epoch. It is chunked: the column's physical array is cut
  into fixed-size runs of ``chunk_rows`` rows, and a writer publishing a
  new generation copies **only the chunks it touched** — untouched chunk
  arrays are shared *by object identity* across generations, so hot DML
  on a large table pays per-statement cost proportional to the rows it
  modified, not to the table size.
* A :class:`TableSnapshot` bundles one generation of every column plus
  the frozen ``row_count`` / ``udi_total`` / ``version`` (epoch) and the
  engine statement-clock ``stamp`` it was published at. It exposes the
  same read surface as a live :class:`~repro.storage.table.Table`
  (``column`` / ``column_data`` / ``fetch_rows`` / ``schema`` / ...), so
  the executor, optimizer, JITS sampling, predicate kernels and shared-
  memory exports all run against it unchanged.
* :class:`SnapshotIndexSet` rebuilds declared secondary indexes lazily
  from the snapshot's immutable arrays. Index structures are cached on
  the :class:`ColumnSnapshot` itself, so a column untouched across ten
  generations builds its index once and every generation (and every
  concurrently pinned reader) shares it.

Readers *pin* a snapshot for the duration of one statement (see
``Table.pin_current`` / ``pin_as_of``); pinning is a refcount under the
table's snapshot lock, and the bounded retention window never trims a
pinned generation — ``AS OF`` time travel and mid-scan process workers
keep their arrays alive for exactly as long as they need them.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..errors import StorageError
from ..types import DataType, Value

#: Default copy-on-write chunk size (rows). 64Ki rows keeps a touched
#: int64/float64 chunk at 512 KiB — small enough that point DML is cheap,
#: large enough that full-column materialization is a handful of memcpys.
DEFAULT_CHUNK_ROWS = 1 << 16

#: Default bounded retention window: how many published generations a
#: table keeps reachable for ``AS OF`` before unpinned ones are GC'd.
DEFAULT_SNAPSHOT_RETENTION = 8


class ColumnSnapshot:
    """One immutable generation of one column.

    ``chunks`` is the ground truth (read-only numpy arrays; all but the
    last hold exactly ``chunk_rows`` values). ``data`` materializes a
    contiguous array lazily and caches it, so the first scan of a
    generation pays the concatenation and every later scan — including
    other reader threads pinning the same generation — reuses it.
    """

    __slots__ = (
        "name",
        "dtype",
        "dictionary",
        "chunks",
        "size",
        "version",
        "_np_dtype",
        "_data",
        "_hash_index",
        "_sorted_index",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        dtype: DataType,
        dictionary,
        chunks: List[np.ndarray],
        size: int,
        version: int,
        np_dtype: np.dtype,
    ):
        self.name = name
        self.dtype = dtype
        # Shared with the live column: string dictionaries are append-only
        # (codes never change meaning), so decode stays GIL-safe here.
        self.dictionary = dictionary
        self.chunks = chunks
        self.size = size
        # The live column's mutation version at publish time: identical
        # data across generations keeps an identical version, which is
        # what lets cached index structures carry over.
        self.version = version
        self._np_dtype = np_dtype
        self._data: Optional[np.ndarray] = None
        self._hash_index = None
        self._sorted_index = None

    def __len__(self) -> int:
        return self.size

    @property
    def data(self) -> np.ndarray:
        """Contiguous physical values; lazily materialized, then cached.

        A benign race between two readers materializing concurrently
        costs one redundant copy; the attribute store is atomic.
        """
        out = self._data
        if out is None:
            if not self.chunks:
                out = np.empty(0, dtype=self._np_dtype)
            elif len(self.chunks) == 1:
                out = self.chunks[0]
            else:
                out = np.concatenate(self.chunks)
            out.setflags(write=False)
            self._data = out
        return out

    # -- the read-side surface shared with Column ----------------------
    def lookup_value(self, value: Value) -> Union[int, float, None]:
        value = self.dtype.validate(value)
        if self.dictionary is not None:
            return self.dictionary.find_code(value)  # type: ignore[arg-type]
        return value  # type: ignore[return-value]

    def decode_value(self, physical: Union[int, float]) -> Value:
        if self.dictionary is not None:
            return self.dictionary.decode(int(physical))
        if self.dtype is DataType.INT:
            return int(physical)
        return float(physical)

    def logical_values(self, rows: Optional[np.ndarray] = None) -> List[Value]:
        phys = self.data if rows is None else self.data[rows]
        if self.dictionary is not None:
            return self.dictionary.decode_many(phys)
        if self.dtype is DataType.INT:
            return [int(v) for v in phys]
        return [float(v) for v in phys]


class _ColumnTableAdapter:
    """Minimal table-like shim so the lazy index classes can build over a
    single frozen :class:`ColumnSnapshot` without referencing any table
    generation (which would chain generations alive through the index
    cache).

    The column is held weakly: it owns the index that owns this adapter,
    and a strong back-reference would be a cycle that keeps a trimmed
    generation's arrays alive until a gen-2 collection. Whoever can reach
    the index got it through the column (the pinned read view), so the
    referent is alive whenever the index is used.
    """

    __slots__ = ("name", "_column")

    def __init__(self, table_name: str, column: ColumnSnapshot):
        self.name = table_name
        self._column = weakref.ref(column)

    def column(self, _name: str) -> ColumnSnapshot:
        column = self._column()
        if column is None:
            raise StorageError(
                f"snapshot of {self.name!r} was released before its index"
            )
        return column

    def column_data(self, name: str) -> np.ndarray:
        return self.column(name).data

    def __reduce__(self):
        # Weak references do not pickle; rebuild one on load.
        return (_ColumnTableAdapter, (self.name, self.column("")))


class SnapshotIndexSet:
    """Read-only index set over one :class:`TableSnapshot`.

    Mirrors the lookup surface of :class:`~repro.storage.index.IndexSet`
    (``hash_on`` / ``sorted_on`` / ``all``). Declared (kind, column)
    pairs are captured from the live set when the set is built (see
    :meth:`TableSnapshot.index_view`); the physical
    structures build lazily from the snapshot's immutable arrays and are
    cached on the column snapshots, so they are shared across every
    generation whose column is byte-identical (same object).
    """

    def __init__(
        self,
        table_name: str,
        columns: Dict[str, ColumnSnapshot],
        declared: Iterable[Tuple[str, str]],
    ):
        # The columns, not the TableSnapshot that caches this set: a
        # back-reference would be a cycle (see _ColumnTableAdapter).
        self._table_name = table_name
        self._columns = columns
        self._declared = frozenset(
            (kind, column.lower()) for kind, column in declared
        )

    def declared(self) -> frozenset:
        return self._declared

    def hash_on(self, column: str):
        return self._get("hash", column.lower())

    def sorted_on(self, column: str):
        return self._get("sorted", column.lower())

    def all(self) -> List[object]:
        return [self._get(kind, column) for kind, column in self._declared]

    def drop(self, kind: str, column: str) -> bool:  # pragma: no cover
        raise StorageError("snapshot index sets are read-only")

    create_hash = create_sorted = drop

    def _get(self, kind: str, column: str):
        if (kind, column) not in self._declared:
            return None
        col = self._columns[column]
        slot = "_hash_index" if kind == "hash" else "_sorted_index"
        index = getattr(col, slot)
        if index is None:
            # Imported here: index.py imports table.py imports this module.
            from .index import HashIndex, SortedIndex

            adapter = _ColumnTableAdapter(self._table_name, col)
            cls = HashIndex if kind == "hash" else SortedIndex
            index = cls(adapter, column)
            # Benign race: two readers may build twice; last store wins
            # and both structures answer identically.
            setattr(col, slot, index)
        return index


class TableSnapshot:
    """One immutable published generation of a table.

    Presents the live table's read surface, so every consumer that does
    ``database.table(name)`` under a read view transparently operates on
    the pinned generation. ``version`` is the publication epoch (the
    table's ``version`` counter at publish), ``stamp`` the engine
    statement clock drawn at publish time — ``AS OF <clock>`` resolves
    against stamps.
    """

    def __init__(
        self,
        source,
        columns: Dict[str, ColumnSnapshot],
        version: int,
        stamp: int,
        udi_total: int,
        row_count: int,
    ):
        self._source = source  # the live Table (storage identity)
        self.schema = source.schema
        self.columns = columns
        self.version = version
        self.stamp = stamp
        self.udi_total = udi_total
        self._row_count = row_count
        # Pin refcount; guarded by the source table's snapshot lock.
        self.pins = 0
        self._indexes: Optional[SnapshotIndexSet] = None
        self._index_lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return self._row_count

    def __len__(self) -> int:
        return self._row_count

    @property
    def storage_identity(self):
        """The live :class:`Table` this generation belongs to. The shm
        export cache keys on it so a DROP+CREATE under the same name
        never validates against the old table's arrays."""
        return self._source

    @property
    def chunk_rows(self) -> int:
        return self._source.chunk_rows

    def column(self, name: str) -> ColumnSnapshot:
        try:
            return self.columns[name.lower()]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def column_data(self, name: str) -> np.ndarray:
        return self.column(name).data

    def fetch_rows(
        self, rows: Optional[np.ndarray], columns: Iterable[str]
    ) -> List[tuple]:
        decoded = [self.column(c).logical_values(rows) for c in columns]
        return list(zip(*decoded)) if decoded else []

    def udi_since(self, snapshot: int) -> int:
        return self.udi_total - snapshot

    def index_view(
        self, declared: Optional[Iterable[Tuple[str, str]]]
    ) -> SnapshotIndexSet:
        """The snapshot's lazy index set over the live table's current
        ``declared`` (kind, column) pairs. The set is cached and rebuilt
        only when an index was created or dropped since (cheap: the
        physical structures stay cached on the column snapshots).
        ``declared`` is None once the live table is gone: a generation
        pinned across DROP TABLE keeps serving the indexes it had."""
        wanted = None if declared is None else frozenset(
            (kind, column.lower()) for kind, column in declared
        )
        with self._index_lock:
            indexes = self._indexes
            if indexes is None or (
                wanted is not None and indexes.declared() != wanted
            ):
                indexes = SnapshotIndexSet(self.name, self.columns, wanted or ())
                self._indexes = indexes
            return indexes

    def release(self) -> None:
        """Unpin this generation (see ``Table.unpin``)."""
        self._source.unpin(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableSnapshot({self.name!r}, epoch={self.version}, "
            f"stamp={self.stamp}, rows={self._row_count}, pins={self.pins})"
        )
