"""Cross-query sample reuse: one immutable sample per table.

The paper draws one fixed-size sample per table and computes every
predicate group from it (Section 3.3); sampling-based re-optimization
systems likewise reuse a sample across optimizations. JITS collects only
through this module:

* A :class:`Sample` is the values one published table generation holds at
  the positions :func:`~repro.storage.fixed_size_sample` drew, plus the
  predicate masks evaluated on those values. Nothing in it depends on
  the table after the draw: later writes, a DELETE included, cannot
  shift it, and its masks all describe the one generation it was drawn
  from.
* :class:`SampleCache` keeps one sample per live table and redraws it on
  the paper's rule alone: once UDI activity since the draw reaches
  ``max(1, int(SAMPLE_STALENESS * rows at draw))``. It holds the table
  weakly, so DROP TABLE frees the sample with the table, and a table
  created under the same name starts without one.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Tuple

import numpy as np

from ..executor.vector import Batch, ColumnVector
from ..predicates import LocalPredicate, values_mask
from ..storage import TableSnapshot, fixed_size_sample, take_columns

# Resample once UDI activity since the draw reaches this fraction of the
# table's cardinality at draw time.
SAMPLE_STALENESS = 0.05
# Masks one sample memoizes; past it the oldest is forgotten first.
MAX_SAMPLE_MASKS = 1024


class Sample:
    """One table generation's values at the drawn positions, and the
    predicate masks evaluated on them."""

    def __init__(self, generation: TableSnapshot, rows: np.ndarray):
        self.udi_total = generation.udi_total
        self.row_count = generation.row_count
        self.size = len(rows)
        self.values: Dict[str, np.ndarray] = dict(
            zip(
                generation.columns,
                take_columns(list(generation.columns.values()), rows),
            )
        )
        self.masks: Dict[LocalPredicate, np.ndarray] = {}
        self._lock = threading.Lock()

    def stale(self, udi_total: int) -> bool:
        """Whether UDI activity since the draw has reached the threshold."""
        threshold = max(1, int(SAMPLE_STALENESS * self.row_count))
        return udi_total - self.udi_total >= threshold

    def mask(self, table, predicate: LocalPredicate) -> Tuple[np.ndarray, bool]:
        """``(mask, was_memoized)`` of ``predicate`` over the sample.

        ``table`` (any generation of the sampled table) only encodes the
        predicate's operands: dictionary codes never change meaning.
        """
        mask = self.masks.get(predicate)
        if mask is not None:
            return mask, True
        mask = values_mask(table, predicate, self.values[predicate.column.lower()])
        with self._lock:
            if len(self.masks) >= MAX_SAMPLE_MASKS:
                del self.masks[next(iter(self.masks))]
            self.masks[predicate] = mask
        return mask, False

    def batch(self, table, alias: str) -> Batch:
        """The sample as an executor batch, columns keyed under ``alias``."""
        alias = alias.lower()
        return Batch(
            {
                (alias, name): ColumnVector(
                    values, table.column(name).dtype, table.column(name).dictionary
                )
                for name, values in self.values.items()
            },
            self.size,
        )


class SampleCache:
    """One :class:`Sample` per live table, reused across compilations."""

    def __init__(self, sample_size: int, rng: np.random.Generator):
        self.sample_size = sample_size
        self.rng = rng
        self._samples: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.mask_hits = 0
        self.mask_misses = 0
        # Covers the probe AND the draw: numpy Generators are not
        # thread-safe, and two concurrent misses on one table must draw once.
        self._lock = threading.Lock()

    def get(self, table) -> Tuple[Sample, bool]:
        """``(sample, was_hit)`` for a live table or a pinned generation;
        a live table is sampled through its current generation."""
        if isinstance(table, TableSnapshot):
            generation, table = table, table.source
        else:
            generation = table.current_snapshot
        with self._lock:
            sample = self._samples.get(table)
            if sample is not None:
                if not sample.stale(generation.udi_total):
                    self.hits += 1
                    return sample, True
                self.invalidations += 1
            self.misses += 1
            rows = fixed_size_sample(generation, self.sample_size, self.rng)
            sample = Sample(generation, rows)
            self._samples[table] = sample
            return sample, False

    def count_masks(self, hits: int, misses: int) -> None:
        with self._lock:
            self.mask_hits += hits
            self.mask_misses += misses

    @property
    def mask_entries(self) -> int:
        """Masks held by the samples of live tables."""
        with self._lock:
            return sum(len(sample.masks) for sample in self._samples.values())
