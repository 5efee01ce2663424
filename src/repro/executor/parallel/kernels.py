"""Sharded scan / aggregate / distinct / RUNSTATS kernels.

A kernel is a module-level function taking ``(arrays, **kwargs)`` where
``arrays`` maps lower-case column names to physical numpy arrays — either
zero-copy shared-memory views inside a worker process or the live column
views when the manager runs the same kernels in-process. Tasks name
kernels via the :data:`KERNELS` registry (no function pickling), and all
other arguments are plain picklable values.

Predicates cross the process boundary as
:class:`~repro.predicates.physical.PhysPredicate`: the parent lowers each
``LocalPredicate`` to already-encoded physical values
(``encode_predicates``), so workers never touch string dictionaries, and
the shard masks come from the same ``physical_mask`` that
``repro.predicates.evaluate`` calls in-process.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from ...predicates.physical import PhysPredicate, physical_mask
from ..aggregate import group_rows, partial
from ..joinutil import factorize


def scan_shard(
    arrays: Dict[str, np.ndarray],
    preds: Tuple[PhysPredicate, ...],
    start: int,
    stop: int,
) -> np.ndarray:
    """Global row positions in ``[start, stop)`` matching every predicate.

    Shards partition ``[0, n_rows)``, so concatenating shard results in
    order reproduces ``np.flatnonzero(group_mask(...))`` exactly.
    """
    mask: Optional[np.ndarray] = None
    for pred in preds:
        m = physical_mask(arrays[pred.column][start:stop], pred)
        mask = m if mask is None else (mask & m)
    if mask is None:
        return np.arange(start, stop, dtype=np.int64)
    return (np.flatnonzero(mask) + start).astype(np.int64)


def column_stats_shard(
    arrays: Dict[str, np.ndarray],
    column: str,
    rows: Optional[np.ndarray],
    integral: bool,
    scale: float,
    n_buckets: int,
    n_frequent: int,
) -> dict:
    """One column's RUNSTATS distribution pass (the per-column task unit).

    Delegates to ``catalog.runstats.column_stats_raw`` so the sequential
    and parallel paths compute identical statistics.
    """
    from ...catalog.runstats import column_stats_raw

    data = arrays[column]
    if rows is not None:
        data = data[np.asarray(rows, dtype=np.int64)]
    return column_stats_raw(
        data,
        integral=integral,
        scale=scale,
        n_buckets=n_buckets,
        n_frequent=n_frequent,
    )


def group_aggregate_shard(
    arrays: Dict[str, np.ndarray],
    preds: Tuple[PhysPredicate, ...],
    start: int,
    stop: int,
    keys: Tuple[str, ...],
    specs: Tuple[Tuple[str, str], ...],
    ranks: Optional[Dict[str, np.ndarray]] = None,
) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...], int]:
    """Fused scan → filter → grouped partial aggregate over one shard.

    ``keys`` are group-key column names (empty for a global aggregate,
    which is one group even over zero rows); ``specs`` are
    ``(kind, column)`` pairs for ``aggregate.partial`` (``column`` is
    empty for COUNT). Returns ``(key_value_arrays, partial_arrays,
    matched_rows)``, one partial slot per shard-local group in key
    order; ``fragments.merge_group_partials`` re-groups across shards.
    ``ranks`` maps a string column to the lexicographic rank of each
    dictionary code: workers never see dictionaries, and MIN/MAX reduce
    over ranks because codes do not follow string order.
    """
    idx = scan_shard(arrays, preds, start, stop)
    key_data = [arrays[k][idx] for k in keys]
    gids, first_idx = group_rows(key_data, len(idx))
    ranks = ranks or {}

    def argument(column: str) -> Optional[np.ndarray]:
        if not column:
            return None
        values = arrays[column][idx]
        return ranks[column][values] if column in ranks else values

    partials = tuple(
        partial(kind, argument(column), gids, len(first_idx))
        for kind, column in specs
    )
    return tuple(kd[first_idx] for kd in key_data), partials, int(len(idx))


def distinct_shard(
    arrays: Dict[str, np.ndarray],
    preds: Tuple[PhysPredicate, ...],
    start: int,
    stop: int,
    columns: Tuple[str, ...],
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], int]:
    """Shard-local duplicate elimination over the projected columns.

    Keeps each distinct tuple's first occurrence in row order (the
    sequential ``Distinct`` contract); the parent re-deduplicates across
    shards, where shard order preserves global row order.
    """
    idx = scan_shard(arrays, preds, start, stop)
    matched = int(len(idx))
    values = [arrays[c][idx] for c in columns]
    keep = np.sort(factorize(values)[1])
    return idx[keep], tuple(v[keep] for v in values), matched


def sleep_shard(arrays: Dict[str, np.ndarray], duration: float) -> float:
    """Test-support kernel: hold a worker busy (fault-injection tests)."""
    time.sleep(duration)
    return duration


KERNELS = {
    "scan": scan_shard,
    "group_aggregate": group_aggregate_shard,
    "distinct": distinct_shard,
    "column_stats": column_stats_shard,
    "sleep": sleep_shard,
}
