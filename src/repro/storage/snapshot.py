"""MVCC column snapshots: immutable, epoch-stamped table versions.

This module extends the RCU pattern the statistics stores already use
(archive/history/catalog publish immutable snapshots; readers load one
epoch with a plain attribute read) to the data columns themselves:

* A :class:`ColumnSnapshot` is an immutable view of one column at one
  publication epoch. It is chunked: the column's values are cut into
  fixed-size runs of ``chunk_rows`` rows, and each value lives once, in
  its chunk. The live column holds the same chunk arrays, copy-on-write:
  a write copies a chunk some generation reads before it writes to it,
  once per generation, and publishing freezes the chunks written since
  the last generation and hands them out without copying. Untouched
  chunks are shared *by object identity* across generations, so hot DML
  on a large table pays per-statement cost proportional to the rows it
  modified, not to the table size.
* A :class:`TableSnapshot` bundles one generation of every column plus
  the frozen ``row_count`` / ``udi_total`` / ``version`` (epoch) and the
  engine statement-clock ``stamp`` it was published at. It exposes the
  same read surface as a live :class:`~repro.storage.table.Table`
  (``column`` / ``column_data`` / ``fetch_rows`` / ``schema`` / ...), so
  the executor, optimizer, JITS sampling, predicate kernels and shared-
  memory exports all run against it unchanged.
* Reads go chunk by chunk. :func:`gather` serves every ``take``, live or
  published: sorted rows fill slices of one output (a chunk they cover
  whole is copied), other rows are grouped by chunk (:func:`chunk_groups`),
  gathered per chunk and scattered to their places; :func:`take_columns`
  groups the rows once for several columns of one table. Predicate masks run over
  :attr:`ColumnSnapshot.pieces`, the chunks. Only whole-column callers
  (RUNSTATS, the pool's in-process path) concatenate a column, afresh
  each time: nothing caches a second copy of the values.
* A multi-chunk :class:`ColumnSnapshot` is a :class:`ColumnBody` — every
  chunk but the last — plus its own last chunk. Consecutive generations
  whose leading chunks are the same arrays share the body object, and
  each declared index is built on the body once, from a transient
  concatenation of its chunks. A generation adds only an index over its
  last chunk. So the common write, an INSERT, UPDATE or DELETE confined
  to the last chunk, costs the next reader one chunk's index, not the
  table's. A write to a body chunk, or an INSERT that fills the last
  chunk and starts a new one, starts a new body.
* Secondary indexes live here and nowhere else. The live table declares
  only ``(kind, column)`` pairs (``Table.indexes``); a
  :class:`ColumnSnapshot` builds a declared index on first use and
  caches it, so a column untouched across ten generations builds its
  index once and every generation (and every concurrently pinned reader)
  shares it. A generation answers ``hash_on`` / ``sorted_on`` from its
  own table's current declared set: an index created after a pin serves
  the pinned generation too, and a generation of a dropped table keeps
  the set it had.
* Indexes are never pickled: a pickled generation holds its chunks,
  and an unpickled one rebuilds its indexes on first use.

Readers *pin* a snapshot for the duration of one statement (see
``Table.pin_current`` / ``pin_as_of``); pinning is a refcount under the
table's snapshot lock, and the bounded retention window never trims a
pinned generation — ``AS OF`` time travel and mid-scan process workers
keep their arrays alive for exactly as long as they need them.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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


def chunk_groups(
    rows: np.ndarray, width: int, size: int
) -> Tuple[Optional[np.ndarray], List[int], np.ndarray]:
    """Group int64 row positions by the ``width``-row chunk holding them,
    for a column of ``size`` rows.

    Returns ``(order, bounds, local)``. When ``rows`` are non-decreasing
    (a scan's, an index range's) they are grouped already: ``order`` and
    ``local`` are None, and chunk ``i``'s rows are entries ``bounds[i]``
    to ``bounds[i + 1]``, found by binary search. Otherwise chunk ``i``'s
    rows are the entries ``order[bounds[i]:bounds[i + 1]]`` of ``rows``,
    in their order there, and ``local`` is each row's position within its
    chunk; ``order`` is a stable ``argsort`` of the chunk ids cast to
    ``uint8`` or ``uint16``, which numpy sorts by radix in O(n). Raises
    ``IndexError`` for a position outside the column.
    """
    n = len(rows)
    n_chunks = -(-size // width)
    if n < 2 or not (rows[1:] < rows[:-1]).any():
        if n and (rows[0] < 0 or rows[-1] >= size):
            raise IndexError(f"row positions outside a column of {size} rows")
        cuts = np.searchsorted(rows, np.arange(width, size, width)).tolist()
        return None, [0, *cuts, n][: n_chunks + 1], None
    if rows.min() < 0 or rows.max() >= size:
        raise IndexError(f"row positions outside a column of {size} rows")
    shift = width.bit_length() - 1 if width & (width - 1) == 0 else None
    if n_chunks <= 1 << 8:
        ids = np.empty(n, dtype=np.uint8)
    elif n_chunks <= 1 << 16:
        ids = np.empty(n, dtype=np.uint16)
    else:
        ids = np.empty(n, dtype=np.int64)
    if shift is not None:
        np.right_shift(rows, shift, out=ids, casting="unsafe")
    else:
        np.floor_divide(rows, width, out=ids, casting="unsafe")
    counts = np.bincount(ids, minlength=n_chunks)
    order = np.argsort(ids, kind="stable")
    local = rows & (width - 1) if shift is not None else rows % width
    return order, [0, *np.cumsum(counts).tolist()], local


def gather(
    chunks: Sequence[np.ndarray],
    rows: np.ndarray,
    dtype: np.dtype,
    groups: Optional[Tuple] = None,
) -> np.ndarray:
    """``np.concatenate(chunks)[rows]`` for any row positions (any order,
    repeats allowed), gathered chunk by chunk into one output without the
    concatenation. Every chunk but the last holds the same number of
    values; ``groups`` is :func:`chunk_groups` of ``rows``, when the
    caller gathers several columns cut at the same rows.

    One chunk is one plain gather. Non-decreasing rows fill slices of the
    output, and a chunk they cover whole is copied; other rows are
    gathered per chunk and scattered to their places in the output.
    """
    if len(chunks) == 1:
        return chunks[0][rows]
    rows = np.asarray(rows, dtype=np.int64)
    width = len(chunks[0]) if chunks else 1
    if groups is None:
        size = width * (len(chunks) - 1) + len(chunks[-1]) if chunks else 0
        groups = chunk_groups(rows, width, size)
    order, bounds, local = groups
    out = np.empty(len(rows), dtype=dtype)
    distinct = None
    for i, chunk in enumerate(chunks):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        if order is not None:
            at = order[lo:hi]
            out[at] = chunk[local[at]]
            continue
        if hi - lo == len(chunk):
            # Sorted rows, as many as the chunk holds: all of it, if no
            # row repeats.
            if distinct is None:
                distinct = not (rows[1:] == rows[:-1]).any()
            if distinct:
                out[lo:hi] = chunk
                continue
        part = rows[lo:hi]
        out[lo:hi] = chunk[part - i * width if i else part]
    return out


def take_columns(columns: Sequence, rows: np.ndarray) -> List[np.ndarray]:
    """Each column's values at ``rows``: :meth:`ColumnSnapshot.take` (or
    a live column's) for columns of one table, which are all cut at the
    same rows, grouping the rows by chunk once for all of them."""
    if not columns:
        return []
    pieces = [column.pieces for column in columns]
    if len(pieces[0]) == 1:
        return [p[0][rows] for p in pieces]
    rows = np.asarray(rows, dtype=np.int64)
    width = len(pieces[0][0])
    groups = chunk_groups(rows, width, len(columns[0]))
    return [
        gather(p, rows, p[0].dtype, groups) for p in pieces
    ]


class ColumnBody:
    """Every chunk of a multi-chunk column generation but the last, and
    the indexes over them: each kind built on first use, from a transient
    concatenation of the chunks, and shared by every generation holding
    this body.

    Holds arrays only, no reference back to a column or table, so a
    dropped generation dies by reference counting alone.
    """

    __slots__ = ("chunks", "size", "_derived", "_lock", "__weakref__")

    def __init__(self, chunks: Tuple[np.ndarray, ...]):
        self.chunks = chunks
        self.size = sum(len(chunk) for chunk in chunks)
        self._derived: Dict[str, object] = {}
        self._lock = threading.Lock()

    def index(self, kind: str):
        """The ``kind`` index over the chunks, built once."""
        return _cached(
            self._derived,
            self._lock,
            kind,
            lambda: INDEX_KINDS[kind](np.concatenate(self.chunks)),
        )

    def __getstate__(self):
        return self.chunks

    def __setstate__(self, chunks) -> None:
        self.__init__(chunks)


class ColumnSnapshot:
    """One immutable generation of one column.

    ``chunks`` holds its values, once: read-only numpy arrays, all but
    the last of exactly ``chunk_rows`` values, each shared with the live
    column until a write there copies it and with every other generation
    that did not see that chunk change. With more than one chunk,
    ``body`` is the :class:`ColumnBody` of all but the last, possibly
    shared with other generations, and ``tail`` the last chunk; with one
    or none, ``body`` is None and ``tail`` holds every value. Reads go
    chunk by chunk (:meth:`take`, :attr:`pieces`); :attr:`data`
    concatenates the column afresh on every call, for the callers that
    need it whole.
    """

    __slots__ = (
        "name",
        "dtype",
        "dictionary",
        "chunks",
        "size",
        "body",
        "tail",
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
        """Contiguous physical values: the one chunk, or a fresh read-only
        concatenation of the chunks (not cached)."""
        if self.body is None:
            return self.tail
        out = np.concatenate(self.chunks)
        out.setflags(write=False)
        return out

    @property
    def pieces(self) -> Tuple[np.ndarray, ...]:
        """The values as consecutive arrays: the chunks (one empty array
        for an empty column)."""
        return self.chunks or (self.tail,)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The values at positions ``rows`` (any order, repeats allowed),
        gathered chunk by chunk (see :func:`gather`)."""
        return gather(self.pieces, rows, self.tail.dtype)

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
        return decode_values(self, rows)


def decode_values(column, rows: Optional[np.ndarray]) -> List[Value]:
    """A live or published column's values at ``rows`` (every row for
    None) as Python values, decoded chunk by chunk."""
    pieces = column.pieces if rows is None else (column.take(rows),)
    kind = int if column.dtype is DataType.INT else float
    out: List[Value] = []
    for piece in pieces:
        if column.dictionary is not None:
            out.extend(column.dictionary.decode_many(piece))
        else:
            out.extend(kind(v) for v in piece)
    return out


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
