"""Secondary indexes over table columns.

Two physical shapes are provided:

* :class:`HashIndex` — equality lookups (``code -> row positions``).
* :class:`SortedIndex` — an ``argsort`` permutation supporting range scans
  via binary search.

Indexes rebuild lazily: each index remembers the column version it was
built against and rebuilds on first use after any mutation, on the reading
statement's side; a write never pays for an index. That mirrors the cost
profile of real systems closely enough for the optimizer's purposes (index
maintenance is not what the paper measures), but the rebuild is real work
on the statement that triggers it, so it runs at memory speed. A dense
hash layout costs one packed-key sort
(:func:`~repro.storage.buckets.dense_buckets`) and a sorted index one
default (unstable) ``argsort``; EXPERIMENTS.md has the timings.
:class:`SortedIndex` needs no stable order because nothing can observe
the order among equal values: :meth:`SortedIndex.range_lookup` sorts the
row positions it returns, and the permutation has no other reader.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .buckets import dense_buckets, probe_dense
from .table import Table


class _LazyIndex:
    def __init__(self, table: Table, column: str):
        self.table = table
        self.column = column
        self._built_version = -1
        # Lazy rebuilds happen on first use after a mutation — which, for
        # SELECT scans, is the *reader* side of the engine's RW lock. The
        # build lock keeps two concurrent readers from interleaving a
        # rebuild; double-checked so the steady state stays lock-free.
        self._build_lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"{self.kind}_{self.table.name}_{self.column}".lower()

    kind = "index"

    def _ensure(self) -> None:
        version = self.table.column(self.column).version
        if self._built_version == version:
            return
        with self._build_lock:
            if self._built_version != version:
                self._build()
                self._built_version = version

    def _build(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class HashIndex(_LazyIndex):
    """Equality index: physical value -> array of row positions.

    Integer columns with a compact value range use a dense counting-sort
    layout (O(1) probes, O(n) build); anything else falls back to a
    Python dict of buckets. :meth:`probe` answers a whole batch of keys
    at once; rows come back in key order, then row order within a key.
    """

    kind = "hash"
    _DENSE_SPAN_FACTOR = 8
    _DENSE_SPAN_MIN = 1 << 16

    def __init__(self, table: Table, column: str):
        super().__init__(table, column)
        self._buckets: Dict[Union[int, float], np.ndarray] = {}
        self._dense = False
        self._dense_min = 0
        self._dense_span = 0
        self._starts = np.empty(0, dtype=np.int64)
        self._order = np.empty(0, dtype=np.int64)
        self._n_distinct = 0
        self._empty = np.empty(0, dtype=np.int64)

    def _build(self) -> None:
        data = self.table.column_data(self.column)
        if len(data) and np.issubdtype(data.dtype, np.integer):
            kmin = int(data.min())
            span = int(data.max()) - kmin + 1
            if span <= max(self._DENSE_SPAN_FACTOR * len(data), self._DENSE_SPAN_MIN):
                self._starts, self._order = dense_buckets(data - kmin, span)
                self._dense = True
                self._dense_min = kmin
                self._dense_span = span
                self._n_distinct = int(np.count_nonzero(np.diff(self._starts)))
                self._buckets = {}
                return
        self._dense = False
        order = np.argsort(data, kind="stable")
        sorted_vals = data[order]
        # ``!=``, not ``diff``: inf - inf is NaN, which would split a run
        # of equal infinities into buckets that overwrite one another.
        boundaries = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
        starts = np.concatenate(([0], boundaries)) if len(data) else []
        ends = np.concatenate((boundaries, [len(sorted_vals)])) if len(data) else []
        # A stable argsort keeps equal keys in row order, so each slice is
        # already sorted by row position.
        self._buckets = {
            sorted_vals[s].item(): order[s:e] for s, e in zip(starts, ends)
        }
        self._n_distinct = len(self._buckets)

    def probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All ``(i, row)`` with the column at ``row`` equal to ``keys[i]``.

        Pairs come in key order, then row order within a key: what one
        :meth:`lookup` per key, concatenated, would give. Keys that match
        no stored value (out of the dense span, fractional, non-finite,
        the ``-1`` of an untranslatable string code) yield no pairs.
        """
        keys = np.asarray(keys)
        if len(keys) == 0:
            # No probe, no rebuild: an index left stale by a write waits
            # for the first statement that really probes it.
            return self._empty, self._empty
        self._ensure()
        if self._dense:
            slots = _dense_slots(keys, self._dense_min)
            return probe_dense(self._starts, self._order, slots)
        # One bucket lookup per distinct key, laid out as a dense layout
        # over the distinct keys that the inverse indexes into.
        distinct, inverse = np.unique(keys, return_inverse=True)
        runs = [self._buckets.get(key, self._empty) for key in distinct.tolist()]
        lengths = np.fromiter(map(len, runs), dtype=np.int64, count=len(runs))
        starts = np.concatenate(([0], np.cumsum(lengths)))
        order = np.concatenate(runs) if runs else self._empty
        return probe_dense(starts, order, inverse.astype(np.int64, copy=False))

    def lookup(self, physical_value: Union[int, float]) -> np.ndarray:
        """Row positions whose column equals the physical value."""
        key = np.array([physical_value])
        if key.dtype.kind not in "if":
            # An int beyond int64 (a uint64 or object array) equals no
            # stored value.
            return self._empty
        return self.probe(key)[1]

    def n_distinct(self) -> int:
        self._ensure()
        return self._n_distinct


def _dense_slots(keys: np.ndarray, kmin: int) -> np.ndarray:
    """Probe keys as offsets into a dense layout whose smallest key is
    ``kmin``; -1 where a float key is fractional, non-finite or beyond
    int64 (such a key equals no stored value)."""
    if keys.dtype.kind != "f":
        return keys.astype(np.int64, copy=False) - kmin
    # NaN and the infinities fail the range test.
    whole = (keys >= -(2.0**63)) & (keys < 2.0**63) & (np.floor(keys) == keys)
    slots = np.where(whole, keys, 0).astype(np.int64) - kmin
    slots[~whole] = -1
    return slots


class SortedIndex(_LazyIndex):
    """Order index supporting range lookups with binary search."""

    kind = "sorted"

    def __init__(self, table: Table, column: str):
        super().__init__(table, column)
        self._perm = np.empty(0, dtype=np.int64)
        self._sorted = np.empty(0)

    def _build(self) -> None:
        data = self.table.column_data(self.column)
        self._perm = np.argsort(data)
        self._sorted = data[self._perm]

    def range_lookup(
        self,
        low: Optional[float],
        high: Optional[float],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Row positions with column value inside the given range.

        NaN (sorted last) lies in no range, open-ended ones included; a
        NaN bound matches nothing.
        """
        self._ensure()
        if _is_nan(low) or _is_nan(high):
            return np.empty(0, dtype=np.int64)
        lo = 0
        hi = len(self._sorted)
        if low is not None:
            side = "left" if low_inclusive else "right"
            lo = int(np.searchsorted(self._sorted, low, side=side))
        if high is not None:
            side = "right" if high_inclusive else "left"
            hi = int(np.searchsorted(self._sorted, high, side=side))
        elif self._sorted.dtype.kind == "f":
            hi = int(np.searchsorted(self._sorted, np.inf, side="right"))
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        return np.sort(self._perm[lo:hi])


def _is_nan(bound: Optional[float]) -> bool:
    return isinstance(bound, float) and bound != bound


class IndexSet:
    """All indexes declared on one table, keyed by (kind, column)."""

    def __init__(self, table: Table):
        self.table = table
        self._indexes: Dict[Tuple[str, str], _LazyIndex] = {}

    def create_hash(self, column: str) -> HashIndex:
        key = ("hash", column.lower())
        if key not in self._indexes:
            self.table.column(column)  # validate column exists
            self._indexes[key] = HashIndex(self.table, column)
        return self._indexes[key]  # type: ignore[return-value]

    def create_sorted(self, column: str) -> SortedIndex:
        key = ("sorted", column.lower())
        if key not in self._indexes:
            self.table.column(column)
            self._indexes[key] = SortedIndex(self.table, column)
        return self._indexes[key]  # type: ignore[return-value]

    def hash_on(self, column: str) -> Optional[HashIndex]:
        return self._indexes.get(("hash", column.lower()))  # type: ignore[return-value]

    def sorted_on(self, column: str) -> Optional[SortedIndex]:
        return self._indexes.get(("sorted", column.lower()))  # type: ignore[return-value]

    def all(self):
        return list(self._indexes.values())

    def declared(self):
        """The (kind, column) keys currently declared — what a
        :class:`~repro.storage.snapshot.SnapshotIndexSet` mirrors."""
        return list(self._indexes.keys())
