"""Bucket layouts and run expansion for equality matching.

One kernel serves every equi-join in the engine: the hash index probe
(:meth:`~repro.storage.index.HashIndex.probe`) and the executor's hash and
sorted joins (``executor/joinutil.py``). Each finds, per probe key, a *run*
of matching rows — ``order[lo:lo + count]`` in some bucket layout — and
:func:`expand_runs` turns the runs into flat ``(probe_idx, position)``
pairs: probe order first, then position order within a run. Storage owns
the kernel because indexes use it and storage never imports the executor.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


def dense_buckets(keys: np.ndarray, span: int) -> Tuple[np.ndarray, np.ndarray]:
    """Counting-sort layout ``(starts, order)`` of int keys in ``[0, span)``.

    The positions holding key ``k`` are ``order[starts[k]:starts[k + 1]]``,
    in position order (the argsort is stable).
    """
    starts = np.zeros(span + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=span), out=starts[1:])
    return starts, np.argsort(keys, kind="stable")


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
