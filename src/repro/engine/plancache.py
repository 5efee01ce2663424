"""Engine-level plan cache keyed by query template + statistics epochs.

The last stage of the compilation fast path: when the same query template
arrives again and no statistics the original plan was costed with have
moved — per-table UDI epochs, the QSS archive version (new QSS landing
invalidates), the catalog version (RUNSTATS or migration landing
invalidates) — the whole parse-bind-JITS-optimize
pipeline after parsing is skipped and the previously optimized plan is
re-executed. Plans hold no row positions, only logical operators over
current table state, so re-execution against mutated data stays correct;
the epoch fingerprint exists to bound *plan-quality* staleness, not
result correctness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..optimizer.optimizer import OptimizedQuery

DEFAULT_PLAN_CACHE_SIZE = 64

#: Fraction of a table's cardinality worth of UDI activity that moves the
#: table into a new statistics epoch (and invalidates cached plans
#: referencing it).
PLAN_STALENESS = 0.05


@dataclass
class CachedPlan:
    fingerprint: Tuple
    optimized: OptimizedQuery
    tables: Tuple[str, ...]


class PlanCache:
    """Bounded LRU from query template to an optimized plan.

    One entry per template: a fingerprint mismatch means the statistics
    moved since the plan was built, so the stale entry is dropped and the
    caller recompiles (and re-stores).
    """

    def __init__(self, max_entries: int = DEFAULT_PLAN_CACHE_SIZE):
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        # Concurrent SELECT readers probe and store; LRU bookkeeping
        # mutates the map even on hits.
        self._lock = threading.Lock()

    def lookup(
        self, template: str, fingerprint: Tuple
    ) -> Optional[OptimizedQuery]:
        with self._lock:
            entry = self._entries.get(template)
            if entry is None:
                self.misses += 1
                return None
            if entry.fingerprint != fingerprint:
                del self._entries[template]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(template)
            self.hits += 1
            return entry.optimized

    def store(
        self,
        template: str,
        fingerprint: Tuple,
        optimized: OptimizedQuery,
        tables: Tuple[str, ...],
    ) -> None:
        with self._lock:
            self._entries[template] = CachedPlan(
                fingerprint=fingerprint, optimized=optimized, tables=tables
            )
            self._entries.move_to_end(template)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def drop_table(self, table_name: str) -> None:
        name = table_name.lower()
        with self._lock:
            for template in [
                t for t, e in self._entries.items() if name in e.tables
            ]:
                del self._entries[template]
                self.invalidations += 1

    def clear(self) -> None:
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
