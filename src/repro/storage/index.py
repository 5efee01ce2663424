"""Secondary indexes over one immutable column generation.

Two physical shapes are provided:

* :class:`HashIndex` — equality lookups (``code -> row positions``).
* :class:`SortedIndex` — an ``argsort`` permutation supporting range scans
  via binary search.

An index is built once, in its constructor, from one immutable array,
optionally after a *head*: an index of the same kind over the rows
before it. A :class:`~repro.storage.snapshot.ColumnSnapshot` of one chunk
indexes its values alone. One of several chunks indexes its last chunk
after the index of its body (every earlier chunk), which the body builds
once and every generation sharing the body shares (see
:meth:`~repro.storage.snapshot.ColumnSnapshot.index`). So a write to the
last chunk rebuilds an index over that chunk only. A write never pays
for an index; the first statement that reads a new generation of the
column through it does, so the build runs at memory speed. A dense hash
layout costs one packed-key sort
(:func:`~repro.storage.buckets.dense_buckets`), any other hash layout a
stable ``argsort`` and a sorted index one default (unstable)
``argsort``; EXPERIMENTS.md has the timings. :class:`SortedIndex` needs
no stable order because nothing can observe the order among equal
values: :meth:`SortedIndex.range_lookup` sorts the row positions it
returns, and the permutation has no other reader.

An index holds its arrays (and its head) and nothing else: no reference
back to the column or table it was built from, so it can never keep a
trimmed generation alive.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .buckets import dense_buckets, dense_span, probe_dense, probe_sorted

_EMPTY = np.empty(0, dtype=np.int64)


class HashIndex:
    """Equality index: physical value -> array of row positions.

    Integer columns with a compact value range use a dense counting-sort
    layout (O(1) probes, O(n) build); any other column a stable sort of
    its values, probed by binary search. :meth:`probe` answers a whole
    batch of keys at once; rows come back in key order, then row order
    within a key. ``head``, if given, indexes the rows before ``data``.
    """

    def __init__(self, data: np.ndarray, head: Optional["HashIndex"] = None):
        self._head = head
        offset = 0 if head is None else head.size
        self.size = offset + len(data)
        dense = dense_span(data)
        self._dense = dense is not None
        if dense is not None:
            self._dense_min, span = dense
            self._starts, self._order = dense_buckets(data - self._dense_min, span)
        else:
            # A stable sort keeps equal values in row order.
            self._order = np.argsort(data, kind="stable")
            self._sorted = data[self._order]
        self._order += offset

    def probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All ``(i, row)`` with the column at ``row`` equal to ``keys[i]``.

        Pairs come in key order, then row order within a key: what one
        :meth:`lookup` per key, concatenated, would give. Keys that match
        no stored value (out of the dense span, fractional, NaN, the
        ``-1`` of an untranslatable string code) yield no pairs.
        """
        keys = np.asarray(keys)
        if len(keys) == 0:
            return _EMPTY, _EMPTY
        if self._dense:
            slots, whole = _as_int64(keys)
            slots = slots - self._dense_min
            if whole is not None:
                slots[~whole] = -1
            pairs = probe_dense(self._starts, self._order, slots)
        else:
            pairs = self._probe_sorted(keys)
        if self._head is None:
            return pairs
        return _merge(self._head.probe(keys), pairs)

    def _probe_sorted(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self._sorted.dtype.kind == "f":
            # NaN equals nothing; -0.0 and 0.0 compare equal in the search.
            matchable = keys == keys if keys.dtype.kind == "f" else None
            keys = keys.astype(np.float64, copy=False)
        else:
            keys, matchable = _as_int64(keys)
        if matchable is None:
            return probe_sorted(self._order, self._sorted, keys)
        hit = np.flatnonzero(matchable)
        probe_idx, rows = probe_sorted(self._order, self._sorted, keys[hit])
        return hit[probe_idx], rows

    def lookup(self, physical_value: Union[int, float]) -> np.ndarray:
        """Row positions whose column equals the physical value."""
        key = np.array([physical_value])
        if key.dtype.kind not in "if":
            # An int beyond int64 (a uint64 or object array) equals no
            # stored value.
            return _EMPTY
        return self.probe(key)[1]


def _as_int64(keys: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``keys`` as int64, and which of them can equal a stored int64 (None:
    all). A float key must be whole and inside int64: NaN, the
    infinities and fractions equal nothing."""
    if keys.dtype.kind != "f":
        return keys.astype(np.int64, copy=False), None
    whole = (keys >= -(2.0**63)) & (keys < 2.0**63) & (np.floor(keys) == keys)
    return np.where(whole, keys, 0).astype(np.int64), whole


def _merge(
    first: Tuple[np.ndarray, np.ndarray], second: Tuple[np.ndarray, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Two probes' pairs for the same keys in key order, ``first``'s rows
    before ``second``'s within a key."""
    if len(first[0]) == 0:
        return second
    if len(second[0]) == 0:
        return first
    probe_idx = np.concatenate((first[0], second[0]))
    order = np.argsort(probe_idx, kind="stable")
    return probe_idx[order], np.concatenate((first[1], second[1]))[order]


class SortedIndex:
    """Order index supporting range lookups with binary search.
    ``head``, if given, indexes the rows before ``data``."""

    def __init__(self, data: np.ndarray, head: Optional["SortedIndex"] = None):
        self._head = head
        offset = 0 if head is None else head.size
        self.size = offset + len(data)
        self._perm = np.argsort(data)
        self._sorted = data[self._perm]
        self._perm += offset

    def range_lookup(
        self,
        low: Optional[float],
        high: Optional[float],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Row positions with column value inside the given range, in
        row order.

        NaN (sorted last) lies in no range, open-ended ones included; a
        NaN bound matches nothing.
        """
        if _is_nan(low) or _is_nan(high):
            return _EMPTY
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
        rows = np.sort(self._perm[lo:hi]) if hi > lo else _EMPTY
        if self._head is None:
            return rows
        head = self._head.range_lookup(low, high, low_inclusive, high_inclusive)
        return np.concatenate((head, rows))


def _is_nan(bound: Optional[float]) -> bool:
    return isinstance(bound, float) and bound != bound


#: The index classes by the kind a table declares them under.
INDEX_KINDS = {"hash": HashIndex, "sorted": SortedIndex}
