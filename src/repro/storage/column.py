"""Physical column storage.

A :class:`Column` is its list of chunks: numpy arrays of ``chunk_rows``
values each, the last one shorter. INT and STRING columns are ``int64``
(strings hold dictionary codes); FLOAT columns are ``float64``. Every
value lives once, in its chunk: the live column and the generations it
published (:class:`~repro.storage.snapshot.ColumnSnapshot`) hold the
same arrays, and the live column copies a chunk only when it writes to
one a generation reads (copy-on-write).

* Publishing (:meth:`Column.snapshot`) copies nothing. It freezes each
  chunk written since the last generation (the array itself, or a
  read-only view of its used part) and hands the chunks out; from then
  on every chunk is shared.
* An UPDATE (:meth:`Column.set_at`, :meth:`Column.set_physical`) groups
  its rows by chunk and copies each shared chunk it writes to, once per
  generation.
* An INSERT appends into the last chunk, which has spare capacity
  (doubling up to ``chunk_rows``) that no generation reads, so appends
  write in place even after a publish; a full last chunk starts the
  next.
* A DELETE rebuilds the chunks from its first hole onward.

So a generation whose writes stayed in the last chunk shares every other
chunk with its predecessor, and with them its body (see
:class:`~repro.storage.snapshot.ColumnBody`) and the indexes built over
it. Reads (:meth:`Column.take`, :attr:`Column.pieces`) go chunk by chunk,
as a generation's do.
"""

from __future__ import annotations

import operator
import pickle
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..errors import InvalidValueError, StorageError
from ..types import DataType, Value
from .dictionary import StringDictionary
from .snapshot import (
    DEFAULT_CHUNK_ROWS,
    ColumnSnapshot,
    chunk_groups,
    decode_values,
    gather,
)

_INITIAL_CAPACITY = 16


def _physical_dtype(dtype: DataType) -> np.dtype:
    if dtype is DataType.FLOAT:
        return np.dtype(np.float64)
    return np.dtype(np.int64)


class Column:
    """One growable typed column, held as copy-on-write chunks."""

    def __init__(
        self,
        name: str,
        dtype: DataType,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        if chunk_rows < 1:
            raise StorageError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.name = name
        self.dtype = dtype
        self.dictionary: Optional[StringDictionary] = (
            StringDictionary() if dtype is DataType.STRING else None
        )
        self.chunk_rows = chunk_rows
        self._np_dtype = _physical_dtype(dtype)
        self._size = 0
        # Chunk i holds rows [i * chunk_rows, ...); only the last may be
        # longer than the rows it holds (spare capacity for appends).
        self._chunks: List[np.ndarray] = []
        # The chunks written since the last generation: no generation
        # reads them, so they are written in place. Every other chunk is
        # (the base of) a chunk of the last generation.
        self._private: Set[int] = set()
        self._last_snapshot: Optional[ColumnSnapshot] = None

    def __len__(self) -> int:
        return self._size

    def __getstate__(self):
        """The last generation and nothing else: the chunks are its
        arrays. A column with unpublished writes is not pickled, since
        publishing belongs to its table."""
        last = self._last_snapshot
        if self._private or (0 if last is None else last.size) != self._size:
            raise pickle.PicklingError(
                f"column {self.name!r} has unpublished writes"
            )
        return (self.name, self.dtype, self.dictionary, self.chunk_rows, last)

    def __setstate__(self, state) -> None:
        self.name, self.dtype, self.dictionary, self.chunk_rows, snapshot = state
        self._np_dtype = _physical_dtype(self.dtype)
        self._size = 0 if snapshot is None else snapshot.size
        self._chunks = [] if snapshot is None else list(snapshot.chunks)
        self._private = set()
        self._last_snapshot = snapshot

    @property
    def pieces(self) -> Tuple[np.ndarray, ...]:
        """The live values as consecutive arrays: the chunks, the last cut
        to the rows it holds (one empty array for an empty column)."""
        chunks = self._chunks
        if not chunks:
            return (np.empty(0, dtype=self._np_dtype),)
        used = self._size - (len(chunks) - 1) * self.chunk_rows
        if len(chunks[-1]) == used:
            return tuple(chunks)
        return (*chunks[:-1], chunks[-1][:used])

    @property
    def data(self) -> np.ndarray:
        """The live physical values (codes for strings), contiguous and
        read-only: the one chunk, or a fresh concatenation of the chunks."""
        pieces = self.pieces
        out = pieces[0][:] if len(pieces) == 1 else np.concatenate(pieces)
        out.setflags(write=False)
        return out

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The live values at positions ``rows``, gathered chunk by chunk."""
        return gather(self.pieces, rows, self._np_dtype)

    def logical_values(self, rows: Optional[np.ndarray] = None) -> List[Value]:
        """Decode rows back to Python values (for result fetch)."""
        return decode_values(self, rows)

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
            return np.array([validate(v) for v in values], dtype=self._np_dtype)
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
    # Copy-on-write writes
    # ------------------------------------------------------------------
    def _capacity(self, rows: int) -> int:
        """Capacity of a chunk that must hold ``rows``: the next power of
        two, at least the initial capacity and at most ``chunk_rows``."""
        return min(
            self.chunk_rows, max(_INITIAL_CAPACITY, 1 << (rows - 1).bit_length())
        )

    def _new_chunk(self, values: np.ndarray, capacity: int) -> np.ndarray:
        chunk = np.empty(capacity, dtype=self._np_dtype)
        chunk[: len(values)] = values
        return chunk

    def _writable(self, i: int) -> np.ndarray:
        """Chunk ``i``, copied first if a generation reads it."""
        chunk = self._chunks[i]
        if i not in self._private:
            used = min(self.chunk_rows, self._size - i * self.chunk_rows)
            chunk = self._chunks[i] = self._new_chunk(chunk[:used], len(chunk))
            self._private.add(i)
        return chunk

    def append(self, value: Value) -> None:
        self.extend([value])

    def extend(self, values: Sequence[Value]) -> None:
        self.extend_physical(self.encode_many(values))

    def extend_physical(self, physical: np.ndarray) -> None:
        """Bulk-append already-encoded physical values (fast path).

        Rows past the last chunk's used part are read by no generation,
        so they are written in place; a chunk without the room is first
        reallocated with more.
        """
        cr = self.chunk_rows
        done = 0
        while done < len(physical):
            i, used = divmod(self._size, cr)
            count = min(cr - used, len(physical) - done)
            if i == len(self._chunks):
                self._chunks.append(
                    np.empty(self._capacity(count), dtype=self._np_dtype)
                )
                self._private.add(i)
            elif used + count > len(self._chunks[i]):
                self._chunks[i] = self._new_chunk(
                    self._chunks[i][:used], self._capacity(used + count)
                )
                self._private.add(i)
            self._chunks[i][used : used + count] = physical[done : done + count]
            self._size += count
            done += count

    def set_at(self, rows: np.ndarray, value: Value) -> None:
        """Overwrite the given row positions with one logical value."""
        self._assign(rows, self.encode_many([value])[0])

    def set_physical(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Overwrite row positions with per-row physical values."""
        self._assign(rows, np.asarray(values))

    def _assign(self, rows: np.ndarray, values) -> None:
        """Write ``values`` (one per row, or one for all) at ``rows``,
        chunk by chunk, copying each shared chunk written to."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return
        # Refuses a row past the end before any write: it would land in
        # spare capacity.
        cr = self.chunk_rows
        order, bounds, local = chunk_groups(rows, cr, self._size)
        per_row = np.ndim(values) > 0
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            if lo == hi:
                continue
            if order is None:
                at, where = slice(lo, hi), rows[lo:hi] - i * cr
            else:
                at = order[lo:hi]
                where = local[at]
            self._writable(i)[where] = values[at] if per_row else values

    def delete_rows(self, keep_mask: np.ndarray) -> None:
        """Keep only the rows where ``keep_mask`` is True.

        Chunks before the first hole stay as they are; the kept rows from
        there on are copied into new chunks.
        """
        if len(keep_mask) != self._size:
            raise StorageError("delete mask length mismatch")
        keep = np.asarray(keep_mask, dtype=bool)
        hole = int(np.argmin(keep)) if len(keep) else 0
        if not len(keep) or keep[hole]:
            return
        cr = self.chunk_rows
        first = hole // cr
        pieces = self.pieces[first:]
        masks = [keep[(first + j) * cr :][: len(p)] for j, p in enumerate(pieces)]
        # Rows before the hole are kept as they are: copied, not masked.
        at = hole - first * cr
        kept = [pieces[0][:at], pieces[0][at:][masks[0][at:]]]
        kept += [p[m] for p, m in zip(pieces[1:], masks[1:])]
        count = sum(map(len, kept))
        del self._chunks[first:]
        self._private -= set(range(first, first + len(pieces)))
        self._size = first * cr
        if count:
            self._chunks.append(
                np.empty(self._capacity(min(cr, count)), dtype=self._np_dtype)
            )
            self._private.add(first)
        for part in kept:
            self.extend_physical(part)

    def snapshot(self) -> ColumnSnapshot:
        """Publish this column's current content as an immutable generation.

        Copies nothing. A chunk written since the last generation is
        frozen (the array itself when it is full, else a read-only view
        of the rows it holds) and from then on shared; any other chunk is
        carried over from the last generation by object identity. When
        every chunk but the last is carried over, the new generation
        shares the previous one's body (see
        :class:`~repro.storage.snapshot.ColumnBody`), and with it the
        body's indexes. When nothing changed at all, the previous
        :class:`ColumnSnapshot` object itself is returned.
        """
        last = self._last_snapshot
        if last is not None and not self._private and last.size == self._size:
            return last
        prev = last.chunks if last is not None else ()
        chunks: List[np.ndarray] = []
        for i, piece in enumerate(self.pieces if self._chunks else ()):
            carried = prev[i] if i < len(prev) else None
            if (
                i not in self._private
                and carried is not None
                and len(carried) == len(piece)
            ):
                chunks.append(carried)
                continue
            chunk = self._chunks[i]
            frozen = chunk if len(chunk) == len(piece) else piece
            frozen.setflags(write=False)
            chunks.append(frozen)
        self._private.clear()
        body = None
        if (
            last is not None
            and last.body is not None
            and len(prev) == len(chunks)
            and all(map(operator.is_, chunks[:-1], prev[:-1]))
        ):
            body = last.body
        snap = ColumnSnapshot(
            self.name, self.dtype, self.dictionary, tuple(chunks),
            self._np_dtype, body,
        )
        self._last_snapshot = snap
        return snap
