"""Sharded scan / aggregate / sample-selectivity kernels.

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
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...predicates.physical import PhysPredicate, physical_mask
from ..floatsum import sum_pairs_shard
from ..joinutil import equi_join_indices
from ..vector import apply_code_lookup


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


def masks_shard(
    arrays: Dict[str, np.ndarray],
    preds: Tuple[PhysPredicate, ...],
    rows: np.ndarray,
) -> List[np.ndarray]:
    """One boolean mask per predicate over the given row positions (the
    QSS sample-selectivity kernel; shards split the sample rows)."""
    rows = np.asarray(rows, dtype=np.int64)
    out = []
    for pred in preds:
        out.append(physical_mask(arrays[pred.column][rows], pred))
    return out


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

    ``keys`` are group-key column names (empty for a global aggregate);
    ``specs`` are primitive partials ``(func, column)`` with func in
    count/sum/fsum/min/max/min_rank/max_rank (``column`` ignored for
    count). Returns ``(key_value_arrays, partial_arrays, matched_rows)``
    where each partial array has one slot per shard-local group, groups
    ordered by their key values — :func:`merge_group_partials` in the
    fragments module re-groups across shards. count/sum partials are
    float64; fsum partials are exact ``(mantissa, exp2)`` pairs (object
    dtype, see ``executor.floatsum``); min/max keep the column's physical
    dtype so the merged extreme is exactly the sequential one.
    min_rank/max_rank reduce string columns over ``ranks[column]`` —
    parent-precomputed lexicographic rank per dictionary code — since
    codes themselves do not follow string order and workers never see
    dictionaries.
    """
    idx = scan_shard(arrays, preds, start, stop)
    n = len(idx)
    if keys:
        key_data = [arrays[k][idx] for k in keys]
        if n:
            code_columns = [
                np.unique(kd, return_inverse=True)[1].astype(np.int64)
                for kd in key_data
            ]
            stacked = np.stack(code_columns, axis=1)
            _, first_idx, gids = np.unique(
                stacked, axis=0, return_index=True, return_inverse=True
            )
            gids = gids.astype(np.int64)
            n_groups = len(first_idx)
            group_keys = tuple(kd[first_idx] for kd in key_data)
        else:
            gids = np.zeros(0, dtype=np.int64)
            n_groups = 0
            group_keys = tuple(key_data)
    else:
        gids = np.zeros(n, dtype=np.int64)
        n_groups = 1 if n else 0
        group_keys = ()
    partials: List[np.ndarray] = []
    for func, column in specs:
        if func == "count":
            partials.append(
                np.bincount(gids, minlength=n_groups).astype(np.float64)
            )
            continue
        values = arrays[column][idx]
        if func == "sum":
            partials.append(
                np.bincount(
                    gids,
                    weights=values.astype(np.float64),
                    minlength=n_groups,
                )
            )
            continue
        if func == "fsum":
            partials.append(
                sum_pairs_shard(values.astype(np.float64), gids, n_groups)
            )
            continue
        if func in ("min_rank", "max_rank"):
            values = (
                ranks[column][values.astype(np.int64)]
                if len(values)
                else values.astype(np.int64)
            )
        # min/max: group-contiguous reduceat (every group is non-empty
        # by construction, so the segment reduction is well-defined).
        order = np.argsort(gids, kind="stable")
        starts = np.searchsorted(gids[order], np.arange(n_groups))
        reducer = np.minimum if func.startswith("min") else np.maximum
        if n_groups:
            partials.append(reducer.reduceat(values[order], starts))
        else:
            partials.append(values[:0])
    return group_keys, tuple(partials), int(n)


def partition_codes(values: np.ndarray, n_parts: int) -> np.ndarray:
    """Deterministic partition id per key value.

    Keys are canonicalized to their float64 bit pattern (+0.0 normalizes
    the signed zero), so equal keys — including an int64 5 meeting a
    float64 5.0 across differently-typed join columns — always land in
    the same partition. The bits then go through a splitmix-style mixer:
    integral keys leave the low mantissa bits all zero, and without
    mixing ``% n_parts`` would dump every such key into partition 0,
    serializing the probe stage. Collisions only affect balance, never
    correctness: the probe stage re-checks equality on original values.
    """
    if n_parts <= 1:
        return np.zeros(len(values), dtype=np.int64)
    as_float = np.asarray(values).astype(np.float64) + 0.0
    bits = as_float.view(np.uint64).copy()
    bits ^= bits >> np.uint64(33)
    bits *= np.uint64(0xFF51AFD7ED558CCD)  # wraps mod 2**64 by design
    bits ^= bits >> np.uint64(33)
    return (bits % np.uint64(n_parts)).astype(np.int64)


def join_partition_shard(
    arrays: Dict[str, np.ndarray],
    preds: Tuple[PhysPredicate, ...],
    start: int,
    stop: int,
    key_column: str,
    n_parts: int,
    lookup: Optional[np.ndarray] = None,
) -> Tuple[List[np.ndarray], int]:
    """Stage A of the partitioned hash join: scan one shard of one input
    and split its matching global row ids by join-key partition.

    ``lookup`` translates dictionary codes into the other side's code
    space (see ``vector.code_lookup``) so both inputs partition over the
    same value domain.
    """
    idx = scan_shard(arrays, preds, start, stop)
    keys = arrays[key_column][idx]
    if lookup is not None:
        keys = apply_code_lookup(lookup, keys)
    parts = partition_codes(keys, n_parts)
    return [idx[parts == p] for p in range(n_parts)], int(len(idx))


def join_probe_partition(
    tables: Dict[str, Dict[str, np.ndarray]],
    probe_table: str,
    build_table: str,
    probe_rows: np.ndarray,
    build_rows: np.ndarray,
    keys: Tuple[Tuple[str, str, Optional[np.ndarray]], ...],
) -> Tuple[np.ndarray, np.ndarray]:
    """Stage B: build + probe one partition, both inputs attached.

    ``keys`` is ``((probe_column, build_column, lookup|None), ...)`` with
    the first entry as the hash key and the rest re-checked as masks —
    exactly ``PlanExecutor._exec_hash_join``'s shape. Returns matching
    (probe, build) global row-id pairs; pair order within a partition is
    (probe_row, build_row)-ascending because the inputs are row-ordered
    and ``equi_join_indices`` is stable.
    """
    probe_rows = np.asarray(probe_rows, dtype=np.int64)
    build_rows = np.asarray(build_rows, dtype=np.int64)
    probe_arrays = tables[probe_table]
    build_arrays = tables[build_table]
    probe_col, build_col, lookup = keys[0]
    lv = probe_arrays[probe_col][probe_rows]
    if lookup is not None:
        lv = apply_code_lookup(lookup, lv)
    rv = build_arrays[build_col][build_rows]
    l_idx, r_idx = equi_join_indices(lv, rv)
    if len(keys) > 1:
        mask = np.ones(len(l_idx), dtype=bool)
        for probe_col, build_col, lookup in keys[1:]:
            plv = probe_arrays[probe_col][probe_rows]
            if lookup is not None:
                plv = apply_code_lookup(lookup, plv)
            prv = build_arrays[build_col][build_rows]
            mask &= plv[l_idx] == prv[r_idx]
        l_idx, r_idx = l_idx[mask], r_idx[mask]
    return probe_rows[l_idx], build_rows[r_idx]


def sort_shard(
    arrays: Dict[str, np.ndarray],
    preds: Tuple[PhysPredicate, ...],
    start: int,
    stop: int,
    keys: Tuple[Tuple[str, bool, Optional[np.ndarray]], ...],
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], int]:
    """Shard-local sort: scan, then order the shard's matching rows.

    ``keys`` is ``((column, descending, ranks|None), ...)`` in ORDER BY
    order; ``ranks`` carries lexicographic ranks for string columns
    (``ColumnVector.sort_ranks`` precomputed parent-side). Returns the
    shard's sorted global row ids plus the sort-key arrays in sorted
    order — the parent's stable run-merge consumes both. Ties keep
    original row order (np.lexsort is stable), matching the sequential
    sort exactly.
    """
    idx = scan_shard(arrays, preds, start, stop)
    key_arrays = []
    for column, descending, ranks in keys:
        values = arrays[column][idx]
        if ranks is not None:
            values = (
                ranks[values.astype(np.int64)]
                if len(values)
                else values.astype(np.int64)
            )
        key_arrays.append(-values if descending else values)
    order = np.lexsort(tuple(reversed(key_arrays)))  # first key is primary
    return (
        idx[order],
        tuple(k[order] for k in key_arrays),
        int(len(idx)),
    )


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
    if len(idx):
        code_columns = [
            np.unique(v, return_inverse=True)[1].astype(np.int64)
            for v in values
        ]
        stacked = np.stack(code_columns, axis=1)
        _, first_idx = np.unique(stacked, axis=0, return_index=True)
        keep = np.sort(first_idx)
        idx = idx[keep]
        values = [v[keep] for v in values]
    return idx, tuple(values), matched


def timed_shard(arrays: Dict[str, np.ndarray], kernel: str, kwargs: dict):
    """Wrapper measuring a kernel's worker-side wall-clock.

    The manager wraps row-ranged shard tasks in this to feed adaptive
    shard sizing; ``(elapsed_seconds, result)`` comes back per shard.
    """
    t0 = time.perf_counter()
    result = KERNELS[kernel](arrays, **kwargs)
    return time.perf_counter() - t0, result


def skew_shard(
    arrays: Dict[str, np.ndarray],
    column: str,
    start: int,
    stop: int,
    unit: float,
) -> int:
    """Test-support kernel with data-dependent cost: sleeps ``unit``
    seconds per unit of column mass in the shard, so skewed data makes
    genuinely skewed shard latencies (drives the rebalancing tests)."""
    data = arrays[column][start:stop]
    mass = float(data.sum()) if len(data) else 0.0
    if unit > 0.0 and mass > 0.0:
        time.sleep(unit * mass)
    return stop - start


def sleep_shard(arrays: Dict[str, np.ndarray], duration: float) -> float:
    """Test-support kernel: hold a worker busy (fault-injection tests)."""
    time.sleep(duration)
    return duration


KERNELS = {
    "scan": scan_shard,
    "masks": masks_shard,
    "group_aggregate": group_aggregate_shard,
    "join_partition": join_partition_shard,
    "join_probe": join_probe_partition,
    "sort": sort_shard,
    "distinct": distinct_shard,
    "column_stats": column_stats_shard,
    "timed": timed_shard,
    "skew": skew_shard,
    "sleep": sleep_shard,
}
