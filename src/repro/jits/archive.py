"""The QSS archive: materialized query-specific statistics.

A repository of adaptive single- and multi-dimensional histograms keyed by
(table, column group), updated under the maximum-entropy principle and
bounded by a space budget. Eviction follows the paper (Section 3.4): when
the dedicated space is full, remove the histograms that are almost
uniformly distributed (they say nothing the optimizer's default assumption
doesn't); ties broken by LRU.

Concurrency: the archive is RCU-published. Writers (observe, the batched
recalibration pass, drops) mutate the private master entries under the
archive lock, then publish a new immutable :class:`ArchiveSnapshot` whose
histograms are frozen copies. The optimizer's read path — ``lookup`` /
``mark_used`` on every selectivity estimate — is a plain attribute load of
the current snapshot plus dict probes: no lock, no contention with
concurrent collection. The snapshot's ``version`` is the archive's
statistics epoch; the engine's plan cache keys on it, so a publication is
also the cache-invalidation signal. The writer cost is the copy-on-publish
of the one changed histogram plus a shallow dict copy — paid per observe,
amortized over every lock-free read in between.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..histograms import AdaptiveGridHistogram, Region
from ..storage import Database
from ..catalog import column_domain

ColumnGroup = Tuple[str, ...]

DEFAULT_CELL_BUDGET = 4096
# Histograms with uniformity deviation below this are "almost uniform" and
# evicted first.
UNIFORMITY_EVICTION_THRESHOLD = 0.25


@dataclass
class ArchiveEntry:
    table: str
    columns: ColumnGroup
    histogram: AdaptiveGridHistogram


class ArchiveSnapshot:
    """One immutable, epoch-stamped view of the archive.

    ``entries`` maps archive keys to *frozen* histogram copies; counters
    are captured at publication time, so a reader holding one snapshot
    sees a single consistent statistics epoch.
    """

    __slots__ = (
        "entries",
        "version",
        "total_cells",
        "evictions",
        "deferred_recalibrations",
    )

    def __init__(
        self,
        entries: Mapping[Tuple[str, ColumnGroup], AdaptiveGridHistogram],
        version: int,
        total_cells: int,
        evictions: int,
        deferred_recalibrations: int,
    ):
        self.entries = entries
        self.version = version
        self.total_cells = total_cells
        self.evictions = evictions
        self.deferred_recalibrations = deferred_recalibrations


class QSSArchive:
    """All materialized QSS histograms."""

    def __init__(
        self,
        database: Database,
        cell_budget: int = DEFAULT_CELL_BUDGET,
        max_boundaries_per_dim: int = 24,
        calibrate: bool = True,
    ):
        self.database = database
        self.cell_budget = cell_budget
        self.max_boundaries_per_dim = max_boundaries_per_dim
        self.calibrate = calibrate  # ablation: max-entropy IPF on/off
        # Master (writer-side) entries; mutated only under the lock.
        self._entries: Dict[Tuple[str, ColumnGroup], ArchiveEntry] = {}
        self._dirty: set = set()
        # Keys whose master histogram moved since the last publication;
        # only these are re-frozen when a snapshot is built.
        self._changed: set = set()
        self.evictions = 0
        # Bumped on every publication; plan caches key on it so cached
        # plans are invalidated when new QSS land.
        self._version = 0
        self.deferred_recalibrations = 0
        # Serializes writers (observe / recalibrate / drop) and their
        # publication step. Readers go through the published snapshot and
        # never take it. Reentrant because observe() cascades into budget
        # enforcement.
        self._lock = threading.RLock()
        self._snapshot = ArchiveSnapshot({}, 0, 0, 0, 0)

    @property
    def version(self) -> int:
        """Statistics epoch: bumps exactly when a new snapshot publishes."""
        return self._snapshot.version

    def _publish(self) -> None:
        """Swap in a new snapshot reflecting the master entries.

        Caller holds the lock. Unchanged histograms reuse their previous
        frozen copies; only entries whose master histogram moved since the
        last publication are re-frozen (the copy-on-publish cost).
        """
        previous = self._snapshot.entries
        entries: Dict[Tuple[str, ColumnGroup], AdaptiveGridHistogram] = {}
        for key, entry in self._entries.items():
            frozen = previous.get(key)
            if frozen is None or key in self._changed:
                frozen = entry.histogram.freeze()
            entries[key] = frozen
        self._changed.clear()
        self._snapshot = ArchiveSnapshot(
            entries=entries,
            version=self._version,
            total_cells=sum(
                e.histogram.n_cells for e in self._entries.values()
            ),
            evictions=self.evictions,
            deferred_recalibrations=self.deferred_recalibrations,
        )

    # ------------------------------------------------------------------
    # Lookup (the optimizer's lock-free read path)
    # ------------------------------------------------------------------
    def lookup(
        self, table: str, columns: Iterable[str]
    ) -> Optional[AdaptiveGridHistogram]:
        key = self._key(table, columns)
        hist = self._snapshot.entries.get(key)
        if hist is None:
            return None
        if hist.dirty:
            # Slow path: a deferred observation has not been calibrated
            # yet. Calibrate the master once under the lock and publish a
            # clean copy — readers never see uncalibrated counts.
            return self._recalibrate_one(key) or hist
        return hist

    def _recalibrate_one(
        self, key: Tuple[str, ColumnGroup]
    ) -> Optional[AdaptiveGridHistogram]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:  # raced with a drop/eviction
                return self._snapshot.entries.get(key)
            self._dirty.discard(key)
            if entry.histogram.recalibrate():
                self.deferred_recalibrations += 1
                self._changed.add(key)
                self._publish()
            return self._snapshot.entries.get(key)

    def mark_used(self, table: str, columns: Iterable[str], now: int) -> None:
        # Lock-free: the frozen copy shares its recency cell with the
        # master histogram, so touching it drives LRU eviction directly.
        hist = self._snapshot.entries.get(self._key(table, columns))
        if hist is not None:
            hist.touch(now)

    def has(self, table: str, columns: Iterable[str]) -> bool:
        return self._key(table, columns) in self._snapshot.entries

    def entries(self) -> List[ArchiveEntry]:
        """Master entries (writer side) — for migration and diagnostics."""
        with self._lock:
            return list(self._entries.values())

    @property
    def total_cells(self) -> int:
        return self._snapshot.total_cells

    def __len__(self) -> int:
        return len(self._snapshot.entries)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def observe(
        self,
        table: str,
        columns: Iterable[str],
        region: Region,
        count: float,
        total: Optional[float],
        now: int,
    ) -> AdaptiveGridHistogram:
        """Fold an observed (region, count) fact into the archive.

        Creates the histogram on first touch (domain from current column
        min/max), then records the fact as a constraint and marks the
        histogram dirty: the max-entropy pass runs batched in
        :meth:`recalibrate_dirty` (at ``tick`` and before migration) or
        lazily on the first :meth:`lookup`. Regions must use the canonical
        (sorted) column order. Returns the live master histogram; readers
        get the frozen copy published by the same call.
        """
        key = self._key(table, columns)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                histogram = self._create_histogram(
                    key[0], key[1], total if total is not None else count, now
                )
                entry = ArchiveEntry(
                    table=key[0], columns=key[1], histogram=histogram
                )
                self._entries[key] = entry
            entry.histogram.observe(
                region, count, total=total, now=now, calibrate_now=False
            )
            self._dirty.add(key)
            self._version += 1
            self._changed.add(key)
            self._enforce_budget(protect=key)
            self._publish()
            return entry.histogram

    def recalibrate_dirty(self) -> int:
        """Batched max-entropy pass over every dirty histogram.

        Concurrent callers (every statement's tick crosses here) are
        serialized by the archive lock; whoever arrives first drains the
        dirty set, so each histogram gets exactly one IPF pass per batch.
        """
        if not self._dirty:
            return 0
        with self._lock:
            recalibrated = 0
            for key in list(self._dirty):
                entry = self._entries.get(key)
                if entry is not None and entry.histogram.recalibrate():
                    recalibrated += 1
                    self._changed.add(key)
            self._dirty.clear()
            self.deferred_recalibrations += recalibrated
            if recalibrated:
                self._publish()
            return recalibrated

    def _create_histogram(
        self, table: str, columns: ColumnGroup, total: float, now: int
    ) -> AdaptiveGridHistogram:
        tbl = self.database.table(table)
        domain = Region(tuple(column_domain(tbl, c) for c in columns))
        return AdaptiveGridHistogram(
            domain,
            total=total,
            now=now,
            max_boundaries_per_dim=self.max_boundaries_per_dim,
            calibrate=self.calibrate,
        )

    # ------------------------------------------------------------------
    # Space management
    # ------------------------------------------------------------------
    def _master_cells(self) -> int:
        return sum(e.histogram.n_cells for e in self._entries.values())

    def _enforce_budget(self, protect: Tuple[str, ColumnGroup]) -> None:
        if self._master_cells() <= self.cell_budget:
            return
        # Victims are picked by uniformity, so calibrate first: a dirty
        # histogram still holds the uniform split of its new boundaries.
        for key in self._dirty - {protect}:
            if self._entries[key].histogram.recalibrate():
                self.deferred_recalibrations += 1
                self._changed.add(key)
        self._dirty &= {protect}
        while self._master_cells() > self.cell_budget and len(self._entries) > 1:
            victim = self._pick_victim(protect)
            if victim is None:
                break
            del self._entries[victim]
            self._dirty.discard(victim)
            self.evictions += 1

    def _pick_victim(
        self, protect: Tuple[str, ColumnGroup]
    ) -> Optional[Tuple[str, ColumnGroup]]:
        candidates = [
            (key, entry)
            for key, entry in self._entries.items()
            if key != protect
        ]
        if not candidates:
            return None
        uniform = [
            (key, entry)
            for key, entry in candidates
            if entry.histogram.uniformity() <= UNIFORMITY_EVICTION_THRESHOLD
        ]
        pool = uniform if uniform else candidates
        # LRU among the pool.
        return min(pool, key=lambda item: item[1].histogram.last_used)[0]

    def drop(self, table: str, columns: Iterable[str]) -> bool:
        key = self._key(table, columns)
        with self._lock:
            self._dirty.discard(key)
            dropped = self._entries.pop(key, None) is not None
            if dropped:
                self._version += 1
                self._publish()
            return dropped

    def drop_table(self, table: str) -> int:
        with self._lock:
            keys = [k for k in self._entries if k[0] == table.lower()]
            for key in keys:
                del self._entries[key]
                self._dirty.discard(key)
            if keys:
                self._version += 1
                self._publish()
            return len(keys)

    @staticmethod
    def _key(table: str, columns: Iterable[str]) -> Tuple[str, ColumnGroup]:
        return table.lower(), tuple(sorted(c.lower() for c in columns))
