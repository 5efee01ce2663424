"""ParallelScanManager: the engine-facing facade over shm + pool + kernels.

One manager per engine shards three paths across worker processes:

* table scans (``SeqScan`` with predicates, DML WHERE targeting),
* plan fragments: fused scan→filter→partial aggregate and shard-local
  distinct (see :mod:`.fragments`),
* RUNSTATS per-column distribution passes.

Contracts:

* **Immutable generations, never live stores.** Workers only ever see
  a table through the shared-memory segments of one published
  generation (:mod:`repro.storage.shm`): the caller holds that
  generation while shards are in flight, and RCU statistics snapshots
  are untouched (workers compute raw row ids, partials and stats; the
  parent does every store write).
* **Transparent fallback.** Any pool, worker or shared-memory failure
  falls back to running the identical kernels in-process — a warning,
  never a wrong answer. A dead pool (spawn failure / repeated crashes)
  disables the process path for the rest of the engine's life.
* **Uniform shards.** A row-ranged dispatch splits ``[0, n)`` into
  ``workers`` equal ranges; **workers == 0** runs the kernels
  in-process over a single shard. Shard layout never changes results
  (property-tested), only overlap.
"""

from __future__ import annotations

import threading
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...cancel import check_cancelled
from ...predicates.physical import encode_predicates
from ...storage.shm import ShmError, ShmRegistry
from .kernels import KERNELS
from .pool import PoolUnavailable, WorkerError, WorkerPool

DEFAULT_PARALLEL_THRESHOLD = 32768


class ParallelScanManager:
    def __init__(
        self,
        workers: int = 0,
        threshold_rows: int = DEFAULT_PARALLEL_THRESHOLD,
        task_timeout: float = 120.0,
    ):
        self.workers = max(0, workers)
        self.threshold_rows = max(1, threshold_rows)
        self.registry = ShmRegistry()
        self.pool: Optional[WorkerPool] = (
            WorkerPool(self.workers, task_timeout)
            if self.workers > 0
            else None
        )
        # Two locks with disjoint jobs (the registry has its own, held
        # only for the copy-out): _pool_lock serializes run_tasks, whose
        # queue bookkeeping assumes one in-flight batch at a time;
        # _stats_lock covers the counters concurrent session threads bump
        # outside _pool_lock (fallbacks, inline_calls, fragment_counts).
        self._pool_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.fragment_counts: Dict[str, int] = {}
        self._disabled = False
        self.parallel_calls = 0
        self.inline_calls = 0
        self.fallbacks = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Core dispatch
    # ------------------------------------------------------------------
    def _shard_bounds(self, n: int) -> List[Tuple[int, int]]:
        shards = min(max(1, self.workers), n) if n > 0 else 1
        return [(i * n // shards, (i + 1) * n // shards) for i in range(shards)]

    def _run(self, table, kernel: str, kwargs_list: List[dict], label: str):
        """Run one kernel over shards: worker pool when healthy, else the
        same kernels in-process (identical results either way)."""
        # Shard batches are the manager's morsels: poll the statement's
        # cancel token before dispatching one (workers never see the
        # token, so a pooled batch is interrupted at its boundary).
        check_cancelled()
        if self.pool is not None and not self._disabled:
            try:
                payload = self.registry.export(table)
                tasks = [(kernel, payload, kw) for kw in kwargs_list]
                with self._pool_lock:
                    out = self.pool.run_tasks(tasks)
                    self.parallel_calls += 1
                return out
            except (PoolUnavailable, WorkerError, ShmError, OSError) as exc:
                with self._stats_lock:
                    self.fallbacks += 1
                if isinstance(exc, PoolUnavailable):
                    self._disabled = True
                warnings.warn(
                    f"parallel {label} fell back to in-process execution: "
                    f"{exc}",
                    RuntimeWarning,
                    stacklevel=4,
                )
        with self._stats_lock:
            self.inline_calls += 1
        arrays = {
            name.lower(): table.column_data(name)
            for name in table.schema.column_names()
        }
        fn = KERNELS[kernel]
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
        """Shard ``[0, table.row_count)`` uniformly and run one row-ranged
        kernel task per shard."""
        kwargs_list = [
            dict(common_kwargs, start=start, stop=stop)
            for start, stop in self._shard_bounds(table.row_count)
        ]
        return self._run(table, kernel, kwargs_list, label)

    def run_partitioned(
        self, table, kernel: str, kwargs_list: List[dict], label: str
    ) -> List:
        """Dispatch pre-built kernel tasks over one table — RUNSTATS, one
        task per column."""
        return self._run(table, kernel, kwargs_list, label)

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
    # Plan fragments (aggregate / distinct)
    # ------------------------------------------------------------------
    def fragment_batch(self, node, database, observations):
        """Execute a plan fragment rooted at ``node`` over the pool, or
        return None when the fragment planner declines (the sequential
        operator path then runs; see :mod:`.fragments`)."""
        from .fragments import execute_fragment

        return execute_fragment(self, node, database, observations)

    def note_fragment(self, kind: str) -> None:
        with self._stats_lock:
            self.fragment_counts[kind] = self.fragment_counts.get(kind, 0) + 1

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
        out = self.run_partitioned(table, "column_stats", kwargs, "runstats")
        return dict(zip(names, out))

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "threshold_rows": self.threshold_rows,
            "parallel_calls": self.parallel_calls,
            "inline_calls": self.inline_calls,
            "fallbacks": self.fallbacks,
            "worker_respawns": self.pool.respawns if self.pool else 0,
            "segments_exported": self.registry.exports,
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
