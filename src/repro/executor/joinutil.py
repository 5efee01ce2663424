"""Vectorized equi-join index matching and multi-column group ids.

Integer keys (row ids, dictionary codes — every join key in this engine)
with a compact value range take a dense O(n) counting path; anything else
falls back to sort + binary search. Both expand their matches with the
run-expansion kernel the hash index probe uses (``storage/buckets.py``).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..storage.buckets import dense_buckets, dense_span, probe_dense, probe_sorted

_EMPTY = np.empty(0, dtype=np.int64)


def equi_join_indices(
    left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All (i, j) with ``left[i] == right[j]`` as two index arrays."""
    left = np.asarray(left)
    right = np.asarray(right)
    if len(left) == 0 or len(right) == 0:
        return _EMPTY, _EMPTY
    dense = dense_span(right) if np.issubdtype(left.dtype, np.integer) else None
    if dense is not None:
        return _dense_join(left, right, *dense)
    return _sorted_join(left, right)


def factorize(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """``(gids, first_idx)`` for the rows keyed by one or more columns.

    The result equals the row sort it replaces — per-column
    ``np.unique`` codes stacked into an ``(n, k)`` array, deduplicated
    along axis 0 with ``return_index`` and ``return_inverse``: groups in
    lexicographic key order, each group's first occurrence as its
    representative. Each column is folded into the running group id as
    ``gids * card + codes`` and re-compressed at once with
    :func:`group_ids`, so the combined code stays below n² and cannot
    overflow.
    """
    first, *rest = columns
    gids, first_idx = group_ids(first)
    for column in rest:
        codes, distinct = group_ids(column)
        gids, first_idx = group_ids(gids * len(distinct) + codes)
    return gids, first_idx


def group_ids(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(inverse, first_idx)`` of one key array, as ``np.unique(keys,
    return_index=True, return_inverse=True)`` gives them, as int64.

    Integer keys of a dense span (see ``dense_limit``) take a counting
    path: the first row of each key by ``np.minimum.at``, the keys'
    ranks by a running count of the keys present, and one gather; O(n +
    span) instead of a stable sort.
    """
    dense = dense_span(keys)
    if dense is None:
        _, first_idx, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        return (
            inverse.astype(np.int64, copy=False),
            first_idx.astype(np.int64, copy=False),
        )
    kmin, span = dense
    n = len(keys)
    slots = keys.astype(np.int64, copy=False) - kmin
    first = np.full(span, n, dtype=np.int64)
    np.minimum.at(first, slots, np.arange(n, dtype=np.int64))
    present = first < n
    ranks = np.cumsum(present) - 1
    return ranks[slots], first[present]


def _dense_join(
    left: np.ndarray, right: np.ndarray, rmin: int, span: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Counting-sort join: O(n + m + span + output)."""
    starts, order = dense_buckets(right.astype(np.int64) - rmin, span)
    return probe_dense(starts, order, left.astype(np.int64) - rmin)


def _sorted_join(
    left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort + binary-search join (general keys, duplicate-safe)."""
    order = np.argsort(right, kind="stable")
    return probe_sorted(order, right[order], left)
