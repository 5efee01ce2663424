"""Secondary indexes over one immutable column generation.

Two physical shapes are provided:

* :class:`HashIndex` — equality lookups (``code -> row positions``).
* :class:`SortedIndex` — an ``argsort`` permutation supporting range scans
  via binary search.

An index is built once, in its constructor, from one immutable array: the
contiguous data of one :class:`~repro.storage.snapshot.ColumnSnapshot`,
which builds it on first use and caches it (see
:meth:`~repro.storage.snapshot.ColumnSnapshot.index`). A write never pays
for an index; the first statement that reads a new generation of the
column through it does, so the build runs at memory speed. A dense hash
layout costs one packed-key sort
(:func:`~repro.storage.buckets.dense_buckets`) and a sorted index one
default (unstable) ``argsort``; EXPERIMENTS.md has the timings.
:class:`SortedIndex` needs no stable order because nothing can observe
the order among equal values: :meth:`SortedIndex.range_lookup` sorts the
row positions it returns, and the permutation has no other reader.

An index holds its arrays and nothing else: no reference back to the
column or table it was built from, so it can never keep a trimmed
generation alive.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from .buckets import dense_buckets, dense_span, probe_dense

_EMPTY = np.empty(0, dtype=np.int64)


class HashIndex:
    """Equality index: physical value -> array of row positions.

    Integer columns with a compact value range use a dense counting-sort
    layout (O(1) probes, O(n) build); anything else falls back to a
    Python dict of buckets. :meth:`probe` answers a whole batch of keys
    at once; rows come back in key order, then row order within a key.
    """

    def __init__(self, data: np.ndarray):
        self._buckets: Dict[Union[int, float], np.ndarray] = {}
        dense = dense_span(data)
        self._dense = dense is not None
        if dense is not None:
            self._dense_min, span = dense
            self._starts, self._order = dense_buckets(data - self._dense_min, span)
            return
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

    def probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All ``(i, row)`` with the column at ``row`` equal to ``keys[i]``.

        Pairs come in key order, then row order within a key: what one
        :meth:`lookup` per key, concatenated, would give. Keys that match
        no stored value (out of the dense span, fractional, non-finite,
        the ``-1`` of an untranslatable string code) yield no pairs.
        """
        keys = np.asarray(keys)
        if len(keys) == 0:
            return _EMPTY, _EMPTY
        if self._dense:
            slots = _dense_slots(keys, self._dense_min)
            return probe_dense(self._starts, self._order, slots)
        # One bucket lookup per distinct key, laid out as a dense layout
        # over the distinct keys that the inverse indexes into.
        distinct, inverse = np.unique(keys, return_inverse=True)
        runs = [self._buckets.get(key, _EMPTY) for key in distinct.tolist()]
        lengths = np.fromiter(map(len, runs), dtype=np.int64, count=len(runs))
        starts = np.concatenate(([0], np.cumsum(lengths)))
        order = np.concatenate(runs) if runs else _EMPTY
        return probe_dense(starts, order, inverse.astype(np.int64, copy=False))

    def lookup(self, physical_value: Union[int, float]) -> np.ndarray:
        """Row positions whose column equals the physical value."""
        key = np.array([physical_value])
        if key.dtype.kind not in "if":
            # An int beyond int64 (a uint64 or object array) equals no
            # stored value.
            return _EMPTY
        return self.probe(key)[1]


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


class SortedIndex:
    """Order index supporting range lookups with binary search."""

    def __init__(self, data: np.ndarray):
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


#: The index classes by the kind a table declares them under.
INDEX_KINDS = {"hash": HashIndex, "sorted": SortedIndex}
