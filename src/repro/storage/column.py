"""Physical column storage.

A :class:`Column` is a growable numpy array. INT and STRING columns are
``int64`` (strings hold dictionary codes); FLOAT columns are ``float64``.
Amortized O(1) appends are implemented with capacity doubling. The buffer
never shrinks: UPDATE overwrites rows in place and DELETE compacts the
surviving rows in place from the first hole, so the capacity a table grew
to survives its deletes and the INSERT after a DELETE fills it without
reallocating. Published snapshots hold their own chunk copies (see
:meth:`Column.snapshot`), so in-place writes never reach a reader.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from ..errors import StorageError
from ..types import DataType, Value
from .dictionary import StringDictionary
from .snapshot import DEFAULT_CHUNK_ROWS, ColumnSnapshot

_INITIAL_CAPACITY = 16


def _physical_dtype(dtype: DataType) -> np.dtype:
    if dtype is DataType.FLOAT:
        return np.dtype(np.float64)
    return np.dtype(np.int64)


class Column:
    """One growable typed column."""

    def __init__(
        self,
        name: str,
        dtype: DataType,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        self.name = name
        self.dtype = dtype
        self._buf = np.empty(_INITIAL_CAPACITY, dtype=_physical_dtype(dtype))
        self._size = 0
        self.dictionary: Optional[StringDictionary] = (
            StringDictionary() if dtype is DataType.STRING else None
        )
        # Bumped on every mutation of THIS column; indexes key their cache
        # invalidation off it so updates to other columns don't force
        # rebuilds.
        self.version = 0
        # Copy-on-write bookkeeping for MVCC snapshots: which chunk
        # indices were touched since the last published generation, plus
        # that generation's chunk arrays (clean ones are reused by object
        # identity when the next generation publishes).
        if chunk_rows < 1:
            raise StorageError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.chunk_rows = chunk_rows
        self._dirty: set = set()
        self._last_chunks: List[np.ndarray] = []
        self._last_snapshot: Optional[ColumnSnapshot] = None

    def __len__(self) -> int:
        return self._size

    @property
    def data(self) -> np.ndarray:
        """A view of the live physical values (codes for strings)."""
        return self._buf[: self._size]

    def _reserve(self, extra: int) -> None:
        need = self._size + extra
        if need <= len(self._buf):
            return
        capacity = max(len(self._buf), _INITIAL_CAPACITY)
        while capacity < need:
            capacity *= 2
        buf = np.empty(capacity, dtype=self._buf.dtype)
        buf[: self._size] = self._buf[: self._size]
        self._buf = buf

    def encode_value(self, value: Value) -> Union[int, float]:
        """Validate and convert a logical value to its physical form."""
        value = self.dtype.validate(value)
        if self.dictionary is not None:
            return self.dictionary.encode(value)  # type: ignore[arg-type]
        return value  # type: ignore[return-value]

    def lookup_value(self, value: Value) -> Union[int, float, None]:
        """Physical form of ``value`` without mutating the dictionary.

        Returns ``None`` when a string value is not present in the
        dictionary (the matching predicate is then unsatisfiable).
        """
        value = self.dtype.validate(value)
        if self.dictionary is not None:
            code = self.dictionary.find_code(value)  # type: ignore[arg-type]
            return code
        return value  # type: ignore[return-value]

    def decode_value(self, physical: Union[int, float]) -> Value:
        if self.dictionary is not None:
            return self.dictionary.decode(int(physical))
        if self.dtype is DataType.INT:
            return int(physical)
        return float(physical)

    # ------------------------------------------------------------------
    # Copy-on-write chunk tracking
    # ------------------------------------------------------------------
    def _mark_range(self, start: int, stop: int) -> None:
        """Mark chunks covering rows [start, stop) as touched."""
        if stop <= start:
            return
        cr = self.chunk_rows
        self._dirty.update(range(start // cr, (stop - 1) // cr + 1))

    def _mark_rows(self, rows: np.ndarray) -> None:
        if len(rows) == 0:
            return
        cr = self.chunk_rows
        touched = np.unique(np.asarray(rows, dtype=np.int64) // cr)
        self._dirty.update(int(c) for c in touched)

    def append(self, value: Value) -> None:
        self._reserve(1)
        self._buf[self._size] = self.encode_value(value)
        self._size += 1
        self._mark_range(self._size - 1, self._size)
        self.version += 1

    def extend(self, values: Sequence[Value]) -> None:
        self._reserve(len(values))
        start = self._size
        for value in values:
            self._buf[self._size] = self.encode_value(value)
            self._size += 1
        self._mark_range(start, self._size)
        self.version += 1

    def extend_physical(self, physical: np.ndarray) -> None:
        """Bulk-append already-encoded physical values (fast path)."""
        if physical.dtype != self._buf.dtype:
            physical = physical.astype(self._buf.dtype)
        self._reserve(len(physical))
        self._buf[self._size : self._size + len(physical)] = physical
        self._mark_range(self._size, self._size + len(physical))
        self._size += len(physical)
        self.version += 1

    def set_at(self, rows: np.ndarray, value: Value) -> None:
        """Overwrite the given row positions with one logical value."""
        self._buf[: self._size][rows] = self.encode_value(value)
        self._mark_rows(rows)
        self.version += 1

    def set_physical(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Overwrite row positions with per-row physical values."""
        self._buf[: self._size][rows] = values
        self._mark_rows(rows)
        self.version += 1

    def delete_rows(self, keep_mask: np.ndarray) -> None:
        """Compact the column down to the rows where ``keep_mask`` is True.

        Rows before the first hole stay where they are; the kept rows
        after it move down in place, and the buffer keeps its capacity.
        """
        if len(keep_mask) != self._size:
            raise StorageError("delete mask length mismatch")
        keep = np.asarray(keep_mask, dtype=bool)
        if not keep.all():
            first = int(np.argmin(keep))
            live = self._buf[: self._size]
            tail = live[first:][keep[first:]]
            live[first : first + len(tail)] = tail
            self._size = first + len(tail)
            # Every row from the first deletion onward shifts position, so
            # the chunks from there to the (new, shorter) end are all dirty.
            self._mark_range(first, self._size)
            # A delete shrinking into an earlier chunk still dirties the
            # chunk the first hole landed in, even when it is now the
            # (shorter) tail chunk.
            self._dirty.add(first // self.chunk_rows)
        self.version += 1

    def snapshot(self) -> ColumnSnapshot:
        """Publish this column's current content as an immutable generation.

        Untouched chunks are carried over from the previous generation by
        object identity; touched ones (and any chunk whose extent changed)
        are copied out of the live buffer as read-only arrays. When
        nothing changed at all, the previous :class:`ColumnSnapshot`
        object itself is returned, so downstream caches (materialized
        data, index structures) carry across generations for free.
        """
        cr = self.chunk_rows
        n = self._size
        n_chunks = (n + cr - 1) // cr
        prev = self._last_chunks
        last = self._last_snapshot
        if (
            last is not None
            and not self._dirty
            and last.size == n
            and len(prev) == n_chunks
        ):
            return last
        chunks: List[np.ndarray] = []
        for i in range(n_chunks):
            expected = min((i + 1) * cr, n) - i * cr
            carried = prev[i] if i < len(prev) else None
            if (
                i not in self._dirty
                and carried is not None
                and len(carried) == expected
            ):
                chunks.append(carried)
                continue
            arr = self._buf[i * cr : i * cr + expected].copy()
            arr.setflags(write=False)
            chunks.append(arr)
        self._last_chunks = chunks
        self._dirty.clear()
        snap = ColumnSnapshot(
            self.name,
            self.dtype,
            self.dictionary,
            chunks,
            n,
            self.version,
            self._buf.dtype,
        )
        self._last_snapshot = snap
        return snap

    def logical_values(self, rows: Optional[np.ndarray] = None) -> List[Value]:
        """Decode rows back to Python values (for result fetch)."""
        phys = self.data if rows is None else self.data[rows]
        if self.dictionary is not None:
            return self.dictionary.decode_many(phys)
        if self.dtype is DataType.INT:
            return [int(v) for v in phys]
        return [float(v) for v in phys]
