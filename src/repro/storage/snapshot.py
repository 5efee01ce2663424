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
* A multi-chunk :class:`ColumnSnapshot` is a :class:`ColumnBody` — every
  chunk but the last — plus its own last chunk. Consecutive generations
  whose leading chunks are the same arrays share the body object, and
  what is derived from the whole column is built on the body once: its
  concatenation and each declared index. A generation adds only an index
  over its last chunk, and reads (:meth:`ColumnSnapshot.take`, predicate
  masks over :attr:`ColumnSnapshot.pieces`) gather from the two parts
  without concatenating them. So the common write, an INSERT, UPDATE or
  DELETE confined to the last chunk, costs the next reader one chunk's
  index, not the table's. A write to a body chunk, or an INSERT that
  fills the last chunk and starts a new one, starts a new body.
* Secondary indexes live here and nowhere else. The live table declares
  only ``(kind, column)`` pairs (``Table.indexes``); a
  :class:`ColumnSnapshot` builds a declared index on first use and
  caches it, so a column untouched across ten generations builds its
  index once and every generation (and every concurrently pinned reader)
  shares it. A generation answers ``hash_on`` / ``sorted_on`` from its
  own table's current declared set: an index created after a pin serves
  the pinned generation too, and a generation of a dropped table keeps
  the set it had.
* Derived arrays are never pickled: a pickled generation holds its
  chunks, and an unpickled one rebuilds the rest on first use.

Readers *pin* a snapshot for the duration of one statement (see
``Table.pin_current`` / ``pin_as_of``); pinning is a refcount under the
table's snapshot lock, and the bounded retention window never trims a
pinned generation — ``AS OF`` time travel and mid-scan process workers
keep their arrays alive for exactly as long as they need them.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

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


def _cached(cache: Dict[str, object], lock, key: str, build):
    """``cache[key]``, built by ``build()`` on first use. Double-checked
    under ``lock``: concurrent readers build it once, and the steady state
    takes no lock."""
    value = cache.get(key)
    if value is None:
        with lock:
            value = cache.get(key)
            if value is None:
                value = cache[key] = build()
    return value


class ColumnBody:
    """Every chunk of a multi-chunk column generation but the last, and
    what is derived from them: their concatenation and each index kind,
    built on first use and shared by every generation holding this body.

    Holds arrays only, no reference back to a column or table, so a
    dropped generation dies by reference counting alone.
    """

    __slots__ = ("chunks", "size", "_derived", "_lock", "__weakref__")

    def __init__(self, chunks: Tuple[np.ndarray, ...]):
        self.chunks = chunks
        self.size = sum(len(chunk) for chunk in chunks)
        self._derived: Dict[str, object] = {}
        # Reentrant: an index build reads the concatenation.
        self._lock = threading.RLock()

    @property
    def data(self) -> np.ndarray:
        """The chunks' values, concatenated once."""
        return _cached(self._derived, self._lock, "data", self._concatenate)

    def _concatenate(self) -> np.ndarray:
        out = np.concatenate(self.chunks)
        out.setflags(write=False)
        return out

    def index(self, kind: str):
        """The ``kind`` index over :attr:`data`, built once."""
        return _cached(
            self._derived, self._lock, kind, lambda: INDEX_KINDS[kind](self.data)
        )

    def __getstate__(self):
        return self.chunks

    def __setstate__(self, chunks) -> None:
        self.__init__(chunks)


class ColumnSnapshot:
    """One immutable generation of one column.

    ``chunks`` is the ground truth (read-only numpy arrays; all but the
    last hold exactly ``chunk_rows`` values). With more than one chunk,
    ``body`` is the :class:`ColumnBody` of all but the last, possibly
    shared with other generations, and ``tail`` the last chunk; with one
    or none, ``body`` is None and ``tail`` holds every value. ``data``
    concatenates the column lazily and caches it, for the callers that
    need it whole; scans read :meth:`take` and :attr:`pieces`.
    """

    __slots__ = (
        "name",
        "dtype",
        "dictionary",
        "chunks",
        "size",
        "body",
        "tail",
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
        chunks: Tuple[np.ndarray, ...],
        np_dtype: np.dtype,
        body: Optional[ColumnBody] = None,
    ):
        self.name = name
        self.dtype = dtype
        # Shared with the live column: string dictionaries are append-only
        # (codes never change meaning), so decode stays GIL-safe here.
        self.dictionary = dictionary
        self.chunks = chunks
        if chunks:
            self.tail = chunks[-1]
        else:
            self.tail = np.empty(0, dtype=np_dtype)
            self.tail.setflags(write=False)
        if len(chunks) > 1:
            self.body = body if body is not None else ColumnBody(chunks[:-1])
            self.size = self.body.size + len(self.tail)
        else:
            self.body = None
            self.size = len(self.tail)
        self._data: Optional[np.ndarray] = None
        self._indexes: Dict[str, object] = {}
        self._index_lock = threading.Lock()

    def __len__(self) -> int:
        return self.size

    def __getstate__(self):
        return (
            self.name, self.dtype, self.dictionary, self.chunks,
            self.tail.dtype, self.body,
        )

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    @property
    def data(self) -> np.ndarray:
        """Contiguous physical values; lazily materialized, then cached.

        A benign race between two readers materializing concurrently
        costs one redundant copy; the attribute store is atomic.
        """
        out = self._data
        if out is None:
            if self.body is None:
                out = self.tail
            else:
                out = np.concatenate(self.chunks)
                out.setflags(write=False)
            self._data = out
        return out

    @property
    def pieces(self) -> Tuple[np.ndarray, ...]:
        """The values as consecutive arrays: the body's concatenation and
        the last chunk, or the one chunk."""
        if self.body is None:
            return (self.tail,)
        return (self.body.data, self.tail)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The values at positions ``rows`` (any order, repeats allowed),
        gathered from the body and the last chunk without joining them."""
        body = self.body
        if body is None:
            return self.tail[rows]
        rows = np.asarray(rows, dtype=np.int64)
        split = body.size
        # Sorted rows (a scan's, an index's) split at ``cut`` into body
        # rows and tail rows; unsorted ones that happen to split so take
        # the same path, any others the masked one below.
        cut = int(np.searchsorted(rows, split))
        head, rest = rows[:cut], rows[cut:]
        if (cut == 0 or head.max() < split) and (
            cut == len(rows) or rest.min() >= split
        ):
            if cut == 0:
                return self.tail[rest - split]
            if cut == len(rows):
                return body.data[head]
            return np.concatenate((body.data[head], self.tail[rest - split]))
        in_tail = rows >= split
        out = np.empty(len(rows), dtype=self.tail.dtype)
        out[~in_tail] = body.data[rows[~in_tail]]
        out[in_tail] = self.tail[rows[in_tail] - split]
        return out

    def index(self, kind: str):
        """This generation's ``kind`` ("hash" or "sorted") index, built on
        first use and cached, so every generation sharing this column
        object shares it. Over several chunks it is an index of the last
        chunk after the body's index, which the body builds once."""
        return _cached(
            self._indexes, self._index_lock, kind, lambda: self._build(kind)
        )

    def _build(self, kind: str):
        if self.body is None:
            return INDEX_KINDS[kind](self.tail)
        return INDEX_KINDS[kind](self.tail, self.body.index(kind))

    # -- the read-side surface shared with Column ----------------------
    def lookup_value(self, value: Value) -> Union[int, float, None]:
        value = self.dtype.validate(value)
        if self.dictionary is not None:
            return self.dictionary.find_code(value)  # type: ignore[arg-type]
        return value  # type: ignore[return-value]

    def logical_values(self, rows: Optional[np.ndarray] = None) -> List[Value]:
        phys = self.data if rows is None else self.take(rows)
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
