"""Bucket layouts and run expansion for equality matching.

One kernel serves every equi-join in the engine: the hash index probe
(:meth:`~repro.storage.index.HashIndex.probe`) and the executor's hash and
sorted joins (``executor/joinutil.py``). Each finds, per probe key, a *run*
of matching rows — ``order[lo:lo + count]`` in some bucket layout — and
:func:`expand_runs` turns the runs into flat ``(probe_idx, position)``
pairs: probe order first, then position order within a run. There are two
layouts: the dense one (:func:`dense_buckets`, :func:`probe_dense`) for
integer keys of a compact span, and a stable sort of any keys
(:func:`probe_sorted`). Storage owns the kernel because indexes use it and
storage never imports the executor.

:func:`dense_buckets` builds the layout every dense probe reads, for hash
index builds and hash-join builds alike. It needs the positions of each
key in position order, i.e. a stable sort of the keys. It gets that order
from one unstable numpy ``sort`` of ``(key << b) | position``: the packed
values are unique, so any correct sort puts them in the stable order, and
numpy's SIMD integer sort builds the layout 7-9x faster than a stable
``argsort`` on the car database's join keys. Keys already non-decreasing
(the primary-key side of a join) skip the sort entirely.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)
# Packed sort keys stay non-negative int64 values.
_PACKED_BITS = 62


def dense_limit(n: int) -> int:
    """The widest key span the dense layout takes for ``n`` keys.

    The dense-span rule, ``span <= max(8n, 65536)``: the counting arrays
    stay proportional to the keys, and the packed sort keys of
    :func:`dense_buckets` fit in int64 below about 2**29 rows.
    """
    return max(8 * n, 1 << 16)


def dense_span(keys: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(kmin, span)`` of integer ``keys`` whose span the dense-span rule
    admits (see :func:`dense_limit`); None for any other keys."""
    if len(keys) == 0 or not np.issubdtype(keys.dtype, np.integer):
        return None
    kmin = int(keys.min())
    span = int(keys.max()) - kmin + 1
    return (kmin, span) if span <= dense_limit(len(keys)) else None


def dense_buckets(keys: np.ndarray, span: int) -> Tuple[np.ndarray, np.ndarray]:
    """Counting-sort layout ``(starts, order)`` of int64 keys in ``[0, span)``.

    The positions holding key ``k`` are ``order[starts[k]:starts[k + 1]]``,
    in position order.
    """
    n = len(keys)
    starts = np.zeros(span + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=span), out=starts[1:])
    if n < 2 or bool(np.all(keys[1:] >= keys[:-1])):
        return starts, np.arange(n, dtype=np.int64)
    shift = (n - 1).bit_length()
    # Every span dense_limit(n) admits keeps this true below about 2**29
    # rows.
    assert (span - 1).bit_length() + shift <= _PACKED_BITS, (span, n)
    packed = keys << shift
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    packed &= (1 << shift) - 1
    return starts, packed


def expand_runs(lo: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(run_idx, positions)`` covering ``lo[i] .. lo[i] + counts[i] - 1``
    for every run ``i``, runs in order."""
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    run_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # Position of output j in run i: lo[i] + (j - first output of run i).
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return run_idx, np.arange(total, dtype=np.int64) + shift


def probe_dense(
    starts: np.ndarray, order: np.ndarray, keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(i, order[p])`` whose bucket holds ``keys[i]``, for a
    :func:`dense_buckets` layout; keys outside ``[0, span)`` match nothing."""
    inside = (keys >= 0) & (keys < len(starts) - 1)
    slot = np.where(inside, keys, 0)
    lo = starts[slot]
    counts = np.where(inside, starts[slot + 1] - lo, 0)
    probe_idx, positions = expand_runs(lo, counts)
    return probe_idx, order[positions]


def probe_sorted(
    order: np.ndarray, sorted_keys: np.ndarray, keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(i, order[p])`` with ``sorted_keys[p] == keys[i]``, for a
    stable sort ``order`` of some keys and ``sorted_keys``, those keys in
    that order. A NaN key finds the sorted NaNs: callers that want NaN to
    equal nothing leave such keys out."""
    lo = np.searchsorted(sorted_keys, keys, side="left")
    hi = np.searchsorted(sorted_keys, keys, side="right")
    probe_idx, positions = expand_runs(lo, hi - lo)
    return probe_idx, order[positions]
