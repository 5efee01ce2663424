"""ParallelScanManager: the engine-facing facade over shm + pool + kernels.

One manager per engine shards three hot paths across worker processes:

* table scans (``SeqScan`` with predicates, DML WHERE targeting),
* QSS sample-selectivity evaluation (the JITS collection hot path),
* RUNSTATS per-column distribution passes.

Contracts:

* **Pinned epochs, never live stores.** Workers only ever see a table
  through an epoch-stamped shared-memory export; the calling statement's
  table lock keeps the epoch stable while shards are in flight, and RCU
  statistics snapshots are untouched (workers compute raw masks/stats,
  the parent does every store write).
* **Transparent fallback.** Any pool, worker or shared-memory failure
  falls back to running the identical kernels in-process — a warning,
  never a wrong answer. A dead pool (spawn failure / repeated crashes)
  disables the process path for the rest of the engine's life.
* **workers == 0** runs the kernels in-process over a single shard;
  shard layout never changes results (property-tested), only overlap.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...cancel import check_cancelled
from ...predicates.physical import encode_predicates
from ...storage.shm import ShmError, ShmRegistry
from .kernels import KERNELS
from .pool import PoolUnavailable, WorkerError, WorkerPool

DEFAULT_PARALLEL_THRESHOLD = 32768

#: Ring-buffer size for per-shard latency samples (stats p50/p95).
_LATENCY_SAMPLES = 512

#: A shard-time profile: (total_rows, shard_bounds, shard_seconds).
_Profile = Tuple[int, List[Tuple[int, int]], List[float]]


def equal_latency_bounds(
    profile: _Profile, n: int, shards: int
) -> Optional[List[Tuple[int, int]]]:
    """Re-split ``[0, n)`` so each shard gets equal *predicted* latency.

    The profile's observed per-shard times induce a piecewise-constant
    latency density over the table (positions normalized, so the profile
    survives moderate growth/shrink between dispatches); the new cut
    points invert its cumulative to equal fractions. Returns None when
    the profile carries no signal (zero time, empty table).
    """
    n_old, bounds_old, times_old = profile
    if n <= 0 or n_old <= 0 or shards < 2:
        return None
    segments = [
        (start / n_old, stop / n_old, max(0.0, elapsed))
        for (start, stop), elapsed in zip(bounds_old, times_old)
        if stop > start
    ]
    total = sum(weight for _, _, weight in segments)
    if not segments or total <= 0.0:
        return None
    lo = np.array([s for s, _, _ in segments])
    width = np.array([t - s for s, t, _ in segments])
    weight = np.array([w for _, _, w in segments])
    cum = np.cumsum(weight)
    prev = cum - weight
    edges = [0]
    for j in range(1, shards):
        target = total * j / shards
        i = min(int(np.searchsorted(cum, target)), len(segments) - 1)
        frac = lo[i] + (
            (target - prev[i]) / weight[i] * width[i] if weight[i] > 0 else 0.0
        )
        cut = int(round(frac * n))
        edges.append(min(max(cut, edges[-1]), n))
    edges.append(n)
    return list(zip(edges[:-1], edges[1:]))


class ParallelScanManager:
    def __init__(
        self,
        workers: int = 0,
        threshold_rows: int = DEFAULT_PARALLEL_THRESHOLD,
        start_method: str = "forkserver",
        task_timeout: float = 120.0,
    ):
        self.workers = max(0, workers)
        self.threshold_rows = max(1, threshold_rows)
        self.registry = ShmRegistry()
        self.pool: Optional[WorkerPool] = (
            WorkerPool(self.workers, start_method, task_timeout)
            if self.workers > 0
            else None
        )
        # Two locks with disjoint jobs: _lock guards registry mutations
        # (export / release) and is only ever held for the copy-out, so
        # DROP TABLE never waits out a stalled pool; _pool_lock
        # serializes run_tasks, whose queue bookkeeping assumes one
        # in-flight batch at a time.
        self._lock = threading.Lock()
        self._pool_lock = threading.Lock()
        # Adaptive shard sizing state: per-table latency profiles from
        # the last timed dispatch, plus a sample ring for stats(). The
        # same lock covers the counters concurrent session threads bump
        # outside _pool_lock (rebalances, fallbacks, inline_calls,
        # fragment_counts).
        self._profile_lock = threading.Lock()
        self._profiles: Dict[str, _Profile] = {}
        self._shard_times: deque = deque(maxlen=_LATENCY_SAMPLES)
        self.rebalances = 0
        self.fragment_counts: Dict[str, int] = {}
        self._disabled = False
        self.parallel_calls = 0
        self.inline_calls = 0
        self.fallbacks = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Core dispatch
    # ------------------------------------------------------------------
    def _shard_bounds(
        self, n: int, key: Optional[str] = None
    ) -> List[Tuple[int, int]]:
        shards = max(1, self.workers)
        if n > 0:
            shards = min(shards, n)
        else:
            shards = 1
        uniform = [
            (i * n // shards, (i + 1) * n // shards) for i in range(shards)
        ]
        if key is None or shards < 2:
            return uniform
        with self._profile_lock:
            profile = self._profiles.get(key)
        if profile is None:
            return uniform
        bounds = equal_latency_bounds(profile, n, shards)
        if bounds is None or bounds == uniform:
            return uniform
        with self._profile_lock:
            self.rebalances += 1
        return bounds

    def _note_shard_times(
        self,
        key: Optional[str],
        bounds: Optional[List[Tuple[int, int]]],
        times: List[float],
    ) -> None:
        with self._profile_lock:
            self._shard_times.extend(times)
            if key is not None and bounds and len(bounds) >= 2:
                self._profiles[key] = (bounds[-1][1], list(bounds), times)

    def _run(
        self,
        tables,
        kernel: str,
        kwargs_list: List[dict],
        label: str,
        timing_key: Optional[str] = None,
        bounds: Optional[List[Tuple[int, int]]] = None,
    ):
        """Run one kernel over shards: worker pool when healthy, else the
        same kernels in-process (identical results either way).

        ``tables`` is one table or a sequence (multi-table kernels see a
        per-table arrays dict). ``timing_key`` wraps each task in the
        ``timed`` kernel and records per-shard wall-clock against that
        key for adaptive shard sizing.
        """
        if not isinstance(tables, (list, tuple)):
            tables = [tables]
        multi = len(tables) > 1
        # Shard batches are the manager's morsels: poll the statement's
        # cancel token before dispatching one (workers never see the
        # token, so a pooled batch is interrupted at its boundary).
        check_cancelled()
        if self.pool is not None and not self._disabled:
            try:
                with self._lock:
                    payloads = tuple(
                        self.registry.export(t) for t in tables
                    )
                payload = payloads if multi else payloads[0]
                if timing_key is not None:
                    tasks = [
                        ("timed", payload, dict(kernel=kernel, kwargs=kw))
                        for kw in kwargs_list
                    ]
                else:
                    tasks = [(kernel, payload, kw) for kw in kwargs_list]
                with self._pool_lock:
                    out = self.pool.run_tasks(tasks)
                    self.parallel_calls += 1
                if timing_key is not None:
                    self._note_shard_times(
                        timing_key, bounds, [t for t, _ in out]
                    )
                    out = [result for _, result in out]
                return out
            except (PoolUnavailable, WorkerError, ShmError, OSError) as exc:
                with self._profile_lock:
                    self.fallbacks += 1
                if isinstance(exc, PoolUnavailable):
                    self._disabled = True
                warnings.warn(
                    f"parallel {label} fell back to in-process execution: "
                    f"{exc}",
                    RuntimeWarning,
                    stacklevel=4,
                )
        with self._profile_lock:
            self.inline_calls += 1

        def live_arrays(table):
            return {
                name.lower(): table.column_data(name)
                for name in table.schema.column_names()
            }

        if multi:
            arrays = {t.name.lower(): live_arrays(t) for t in tables}
        else:
            arrays = live_arrays(tables[0])
        fn = KERNELS[kernel]
        if timing_key is not None:
            out, times = [], []
            for kw in kwargs_list:
                check_cancelled()
                t0 = time.perf_counter()
                out.append(fn(arrays, **kw))
                times.append(time.perf_counter() - t0)
            self._note_shard_times(timing_key, bounds, times)
            return out
        results = []
        for kw in kwargs_list:
            check_cancelled()
            results.append(fn(arrays, **kw))
        return results

    def run_ranged(
        self,
        table,
        kernel: str,
        common_kwargs: dict,
        label: str,
    ) -> List:
        """Shard ``[0, table.row_count)`` (adaptively, when a latency
        profile exists for the table) and run one row-ranged kernel task
        per shard; per-shard wall-clock feeds the table's profile."""
        n = table.row_count
        key = table.name.lower()
        bounds = self._shard_bounds(n, key)
        kwargs_list = [
            dict(common_kwargs, start=start, stop=stop)
            for start, stop in bounds
        ]
        return self._run(
            table, kernel, kwargs_list, label, timing_key=key, bounds=bounds
        )

    def run_partitioned(
        self, tables, kernel: str, kwargs_list: List[dict], label: str
    ) -> List:
        """Dispatch pre-built (possibly multi-table) kernel tasks — the
        join probe stage, one task per hash partition."""
        return self._run(tables, kernel, kwargs_list, label)

    # ------------------------------------------------------------------
    # Table scans (SeqScan / DML WHERE)
    # ------------------------------------------------------------------
    def scan_rows(self, table, predicates) -> Optional[np.ndarray]:
        """Row positions matching the predicate conjunction, or None when
        the parallel path does not apply (small table, predicate the
        kernels cannot lower) — the caller then uses ``group_mask``."""
        predicates = list(predicates)
        if not predicates:
            return None
        n = table.row_count
        if n < self.threshold_rows:
            return None
        phys = encode_predicates(table, predicates)
        if phys is None:
            return None
        parts = self.run_ranged(table, "scan", dict(preds=phys), "scan")
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # ------------------------------------------------------------------
    # Plan fragments (aggregate / join / sort / distinct)
    # ------------------------------------------------------------------
    def fragment_batch(
        self, node, block, database, required, observations
    ):
        """Execute a plan fragment rooted at ``node`` over the pool, or
        return None when the fragment planner declines (the sequential
        operator path then runs; see :mod:`.fragments`)."""
        from .fragments import execute_fragment

        return execute_fragment(
            self, node, block, database, required, observations
        )

    def note_fragment(self, kind: str) -> None:
        with self._profile_lock:
            self.fragment_counts[kind] = self.fragment_counts.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # QSS sample-selectivity evaluation (JITS collection)
    # ------------------------------------------------------------------
    def masks_for_predicates(
        self, table, predicates, rows, cache_get=None, cache_put=None
    ):
        """Drop-in parallel analogue of ``evaluate.masks_for_predicates``
        (same ``(masks, hits, misses)`` contract, including the external
        mask cache); None when ineligible."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) < self.threshold_rows:
            return None
        distinct = []
        seen = set()
        for predicate in predicates:
            if predicate not in seen:
                seen.add(predicate)
                distinct.append(predicate)
        masks: Dict = {}
        hits = misses = 0
        missing = []
        for predicate in distinct:
            mask = cache_get(predicate) if cache_get is not None else None
            if mask is None:
                missing.append(predicate)
            else:
                hits += 1
                masks[predicate] = mask
        if missing:
            phys = encode_predicates(table, missing)
            if phys is None:
                return None  # sequential path owns the error semantics
            kwargs = [
                dict(preds=phys, rows=rows[s:t])
                for s, t in self._shard_bounds(len(rows))
            ]
            parts = self._run(table, "masks", kwargs, "selectivity evaluation")
            for i, predicate in enumerate(missing):
                if len(parts) == 1:
                    mask = parts[0][i]
                else:
                    mask = np.concatenate([part[i] for part in parts])
                masks[predicate] = mask
                if cache_put is not None:
                    cache_put(predicate, mask)
                    misses += 1
        return masks, hits, misses

    # ------------------------------------------------------------------
    # RUNSTATS per-column distribution passes
    # ------------------------------------------------------------------
    def column_statistics(
        self,
        table,
        names: Sequence[str],
        rows: Optional[np.ndarray],
        scale: float,
        n_buckets: int,
        n_frequent: int,
        integral_by_name: Dict[str, bool],
    ) -> Optional[Dict[str, dict]]:
        """Raw per-column statistics dicts (one worker task per column),
        or None when the table is below the parallel threshold."""
        if table.row_count < self.threshold_rows or not names:
            return None
        rows_arr = None if rows is None else np.asarray(rows, dtype=np.int64)
        kwargs = [
            dict(
                column=name.lower(),
                rows=rows_arr,
                integral=integral_by_name[name],
                scale=scale,
                n_buckets=n_buckets,
                n_frequent=n_frequent,
            )
            for name in names
        ]
        out = self._run(table, "column_stats", kwargs, "runstats")
        return dict(zip(names, out))

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def release_table(self, table_name: str) -> None:
        """Unlink a dropped table's segments."""
        with self._lock:
            self.registry.release(table_name)

    def stats(self) -> Dict[str, object]:
        with self._profile_lock:
            samples = list(self._shard_times)
        if samples:
            latency = {
                "samples": len(samples),
                "p50_ms": round(
                    float(np.percentile(samples, 50)) * 1000.0, 3
                ),
                "p95_ms": round(
                    float(np.percentile(samples, 95)) * 1000.0, 3
                ),
            }
        else:
            latency = {"samples": 0, "p50_ms": 0.0, "p95_ms": 0.0}
        return {
            "workers": self.workers,
            "threshold_rows": self.threshold_rows,
            "parallel_calls": self.parallel_calls,
            "inline_calls": self.inline_calls,
            "fallbacks": self.fallbacks,
            "worker_respawns": self.pool.respawns if self.pool else 0,
            "tables_exported": self.registry.exports,
            "shard_latency": latency,
            "rebalances": self.rebalances,
            "fragments": dict(sorted(self.fragment_counts.items())),
            "process_path": (
                "disabled"
                if (self.pool is None or self._disabled)
                else "enabled"
            ),
        }

    def close(self) -> None:
        """Stop workers and unlink every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        if self.pool is not None:
            self.pool.close()
        self.registry.close()
