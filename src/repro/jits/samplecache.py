"""Cross-query sample and predicate-mask reuse.

The paper's premise is that JIT collection is "relatively cheap" per
compilation (Section 3.3) — but a fresh ``fixed_size_sample`` plus a full
set of predicate-mask evaluations on every query would dominate compile
time under heavy repeated-template traffic. Sampling-based re-optimization
systems make per-query statistics affordable by *reusing* samples across
optimizations; JITS collects only through this module, keyed by the UDI
counters the sensitivity analysis already maintains:

* :class:`SampleCache` keeps one fixed-size sample per table and reuses it
  until the table's UDI activity since the draw crosses a staleness
  threshold (a fraction of the table's cardinality). Each fresh draw bumps
  the table's *sample epoch*.
* :class:`MaskCache` memoizes predicate masks fingerprinted by
  ``(table, predicate, sample_epoch)``, so repeated workload templates
  skip :func:`~repro.predicates.predicate_mask` entirely while the sample
  they were evaluated on is still live.

A sample drawn here is the same ``fixed_size_sample`` a per-query draw
would take; reuse only changes *when* a table is redrawn.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..predicates import LocalPredicate
from ..storage import Database, fixed_size_sample

# Resample once UDI activity since the draw exceeds this fraction of the
# table's cardinality at draw time.
DEFAULT_SAMPLE_STALENESS = 0.05
DEFAULT_MASK_CACHE_SIZE = 4096


@dataclass
class CachedSample:
    """One table's live sample plus the state it was drawn against."""

    rows: np.ndarray
    epoch: int
    udi_snapshot: int
    row_count: int


class SampleCache:
    """Per-table fixed-size samples reused across compilations."""

    def __init__(
        self,
        database: Database,
        sample_size: int,
        rng: np.random.Generator,
        staleness: float = DEFAULT_SAMPLE_STALENESS,
    ):
        self.database = database
        self.sample_size = sample_size
        self.rng = rng
        self.staleness = staleness
        self._samples: Dict[str, CachedSample] = {}
        self._epochs: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        # Serializes cache probes AND the rng draw itself: numpy
        # Generators are not thread-safe, and two concurrent misses for
        # one table must not both draw (they would double-bump the epoch
        # and leave masks keyed against a vanished sample).
        self._lock = threading.Lock()

    def get(self, table_name: str) -> Tuple[np.ndarray, int, bool]:
        """``(row positions, sample epoch, was_hit)`` for one table."""
        name = table_name.lower()
        table = self.database.table(name)
        with self._lock:
            cached = self._samples.get(name)
            if cached is not None:
                if self._fresh(table, cached):
                    self.hits += 1
                    return cached.rows, cached.epoch, True
                self.invalidations += 1
            self.misses += 1
            rows = fixed_size_sample(table, self.sample_size, self.rng)
            epoch = self._epochs.get(name, -1) + 1
            self._epochs[name] = epoch
            self._samples[name] = CachedSample(
                rows=rows,
                epoch=epoch,
                udi_snapshot=table.udi_total,
                row_count=table.row_count,
            )
            return rows, epoch, False

    def _fresh(self, table, cached: CachedSample) -> bool:
        n = table.row_count
        if n < cached.row_count:
            # Deletes compact the column arrays, shifting row positions.
            return False
        if len(cached.rows) and n <= int(cached.rows[-1]):
            return False  # positions out of range (rows are sorted)
        if cached.row_count < self.sample_size and n > cached.row_count:
            # The "sample" was the whole (small) table; grown tables can
            # afford a fresh draw that sees the new rows.
            return False
        threshold = max(1, int(self.staleness * max(cached.row_count, 1)))
        return table.udi_since(cached.udi_snapshot) < threshold

    def epoch(self, table_name: str) -> int:
        """Current sample epoch for a table; -1 before the first draw."""
        return self._epochs.get(table_name.lower(), -1)

    def drop_table(self, table_name: str) -> None:
        with self._lock:
            name = table_name.lower()
            self._samples.pop(name, None)
            self._epochs.pop(name, None)


MaskKey = Tuple[str, LocalPredicate, int]


class MaskCache:
    """Bounded LRU of predicate masks keyed by (table, predicate, epoch).

    Masks are row-aligned with the sample of the given epoch, so a key is
    automatically dead (and ages out of the LRU) once the sample is
    redrawn. Cached arrays are treated as immutable by all consumers.
    """

    def __init__(self, max_entries: int = DEFAULT_MASK_CACHE_SIZE):
        self.max_entries = max_entries
        self._entries: "OrderedDict[MaskKey, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        # LRU reordering mutates the OrderedDict even on pure lookups, so
        # concurrent readers need the lock on both paths.
        self._lock = threading.Lock()

    def lookup(
        self, table: str, predicate: LocalPredicate, epoch: int
    ) -> Optional[np.ndarray]:
        key = (table.lower(), predicate, epoch)
        with self._lock:
            mask = self._entries.get(key)
            if mask is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return mask

    def store(
        self, table: str, predicate: LocalPredicate, epoch: int, mask: np.ndarray
    ) -> None:
        key = (table.lower(), predicate, epoch)
        with self._lock:
            self._entries[key] = mask
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def drop_table(self, table_name: str) -> None:
        name = table_name.lower()
        with self._lock:
            for key in [k for k in self._entries if k[0] == name]:
                del self._entries[key]

    def __len__(self) -> int:
        return len(self._entries)
