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
* Secondary indexes live here and nowhere else. The live table declares
  only ``(kind, column)`` pairs (``Table.indexes``); a
  :class:`ColumnSnapshot` builds a declared index from its immutable
  array on first use and caches it, so a column untouched across ten
  generations builds its index once and every generation (and every
  concurrently pinned reader) shares it. A generation answers
  ``hash_on`` / ``sorted_on`` from its own table's current declared
  set: an index created after a pin serves the pinned generation too,
  and a generation of a dropped table keeps the set it had.

Readers *pin* a snapshot for the duration of one statement (see
``Table.pin_current`` / ``pin_as_of``); pinning is a refcount under the
table's snapshot lock, and the bounded retention window never trims a
pinned generation — ``AS OF`` time travel and mid-scan process workers
keep their arrays alive for exactly as long as they need them.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from ..errors import StorageError
from ..types import DataType, Value
from .index import INDEX_KINDS

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
        "_np_dtype",
        "_data",
        "_indexes",
        "_index_lock",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        dtype: DataType,
        dictionary,
        chunks: List[np.ndarray],
        size: int,
        np_dtype: np.dtype,
    ):
        self.name = name
        self.dtype = dtype
        # Shared with the live column: string dictionaries are append-only
        # (codes never change meaning), so decode stays GIL-safe here.
        self.dictionary = dictionary
        self.chunks = chunks
        self.size = size
        self._np_dtype = np_dtype
        self._data: Optional[np.ndarray] = None
        self._indexes: Dict[str, object] = {}
        self._index_lock = threading.Lock()

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

    def index(self, kind: str):
        """This generation's ``kind`` ("hash" or "sorted") index, built
        from :attr:`data` on first use and cached, so every generation
        sharing this column object shares it. Double-checked under the
        build lock: concurrent readers build it once, and the steady
        state takes no lock."""
        index = self._indexes.get(kind)
        if index is None:
            with self._index_lock:
                index = self._indexes.get(kind)
                if index is None:
                    index = INDEX_KINDS[kind](self.data)
                    self._indexes[kind] = index
        return index

    # -- the read-side surface shared with Column ----------------------
    def lookup_value(self, value: Value) -> Union[int, float, None]:
        value = self.dtype.validate(value)
        if self.dictionary is not None:
            return self.dictionary.find_code(value)  # type: ignore[arg-type]
        return value  # type: ignore[return-value]

    def logical_values(self, rows: Optional[np.ndarray] = None) -> List[Value]:
        phys = self.data if rows is None else self.data[rows]
        if self.dictionary is not None:
            return self.dictionary.decode_many(phys)
        if self.dtype is DataType.INT:
            return [int(v) for v in phys]
        return [float(v) for v in phys]


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
        self._source = source  # the live Table
        self.schema = source.schema
        self.columns = columns
        self.version = version
        self.stamp = stamp
        self.udi_total = udi_total
        self._row_count = row_count
        # Pin refcount; guarded by the source table's snapshot lock.
        self.pins = 0

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def source(self):
        """The live table this generation was published from."""
        return self._source

    @property
    def row_count(self) -> int:
        return self._row_count

    def __len__(self) -> int:
        return self._row_count

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

    @property
    def indexes(self) -> frozenset:
        """The ``(kind, column)`` indexes declared on this generation's
        own table, read at call time: an index created after the pin
        serves this generation too, and a generation pinned across DROP
        TABLE keeps the set its table had."""
        return self._source.indexes

    def hash_on(self, column: str):
        """The declared hash index on ``column`` over this generation
        (built on first use), or None."""
        return self._index("hash", column)

    def sorted_on(self, column: str):
        """The declared sorted index on ``column`` over this generation
        (built on first use), or None."""
        return self._index("sorted", column)

    def _index(self, kind: str, column: str):
        if (kind, column.lower()) not in self._source.indexes:
            return None
        return self.column(column).index(kind)

    def release(self) -> None:
        """Unpin this generation (see ``Table.unpin``)."""
        self._source.unpin(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableSnapshot({self.name!r}, epoch={self.version}, "
            f"stamp={self.stamp}, rows={self._row_count}, pins={self.pins})"
        )
