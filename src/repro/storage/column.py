"""Physical column storage.

A :class:`Column` is a growable numpy array. INT and STRING columns are
``int64`` (strings hold dictionary codes); FLOAT columns are ``float64``.
Amortized O(1) appends are implemented with capacity doubling. The buffer
never shrinks: UPDATE overwrites rows in place and DELETE compacts the
surviving rows in place from the first hole, so the capacity a table grew
to survives its deletes and the INSERT after a DELETE fills it without
reallocating. Published snapshots hold their own chunk copies (see
:meth:`Column.snapshot`), so in-place writes never reach a reader, and a
generation whose writes stayed in the last chunk shares its predecessor's
body: every chunk but the last, with the concatenation and indexes built
over them.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import InvalidValueError, StorageError
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
        # Copy-on-write bookkeeping for MVCC snapshots: which chunk
        # indices were touched since the last published generation, plus
        # that generation (its clean chunks are reused by object identity
        # when the next generation publishes).
        if chunk_rows < 1:
            raise StorageError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.chunk_rows = chunk_rows
        self._dirty: set = set()
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

    def encode_many(self, values: Sequence[Value]) -> np.ndarray:
        """Validate logical values and convert them to their physical form.

        Writes nothing, so a caller that encodes every column before it
        stores any leaves the table untouched when a value is rejected.
        Raises :class:`InvalidValueError` naming this column.
        """
        validate = self.dtype.validate
        try:
            if self.dictionary is not None:
                return self.dictionary.encode_many(validate(v) for v in values)
            return np.array(
                [validate(v) for v in values], dtype=self._buf.dtype
            )
        except InvalidValueError as exc:
            raise exc.on_column(self.name) from None
        except (TypeError, OverflowError) as exc:  # or an INT past int64
            raise InvalidValueError(str(exc), self.name) from None

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
        self.extend([value])

    def extend(self, values: Sequence[Value]) -> None:
        self.extend_physical(self.encode_many(values))

    def extend_physical(self, physical: np.ndarray) -> None:
        """Bulk-append already-encoded physical values (fast path)."""
        if physical.dtype != self._buf.dtype:
            physical = physical.astype(self._buf.dtype)
        self._reserve(len(physical))
        self._buf[self._size : self._size + len(physical)] = physical
        self._mark_range(self._size, self._size + len(physical))
        self._size += len(physical)

    def set_at(self, rows: np.ndarray, value: Value) -> None:
        """Overwrite the given row positions with one logical value."""
        self._buf[: self._size][rows] = self.encode_many([value])[0]
        self._mark_rows(rows)

    def set_physical(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Overwrite row positions with per-row physical values."""
        self._buf[: self._size][rows] = values
        self._mark_rows(rows)

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

    def snapshot(self) -> ColumnSnapshot:
        """Publish this column's current content as an immutable generation.

        Untouched chunks are carried over from the previous generation by
        object identity; touched ones (and any chunk whose extent changed)
        are copied out of the live buffer as read-only arrays. When every
        chunk but the last is carried over, the new generation shares the
        previous one's body (see :class:`~repro.storage.snapshot.ColumnBody`),
        and with it the body's concatenation and indexes. When nothing
        changed at all, the previous :class:`ColumnSnapshot` object itself
        is returned.
        """
        cr = self.chunk_rows
        n = self._size
        n_chunks = (n + cr - 1) // cr
        last = self._last_snapshot
        prev = last.chunks if last is not None else ()
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
        self._dirty.clear()
        body = None
        if (
            last is not None
            and last.body is not None
            and len(prev) == n_chunks
            and all(map(operator.is_, chunks[:-1], prev[:-1]))
        ):
            body = last.body
        snap = ColumnSnapshot(
            self.name, self.dtype, self.dictionary, tuple(chunks),
            self._buf.dtype, body,
        )
        self._last_snapshot = snap
        return snap

    @property
    def pieces(self) -> Tuple[np.ndarray, ...]:
        """The live values as consecutive arrays: here, one."""
        return (self.data,)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The live values at positions ``rows``."""
        return self.data[rows]

    def logical_values(self, rows: Optional[np.ndarray] = None) -> List[Value]:
        """Decode rows back to Python values (for result fetch)."""
        phys = self.data if rows is None else self.take(rows)
        if self.dictionary is not None:
            return self.dictionary.decode_many(phys)
        if self.dtype is DataType.INT:
            return [int(v) for v in phys]
        return [float(v) for v in phys]
