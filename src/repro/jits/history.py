"""The statistics-collection history (StatHistory, paper Section 3.3.1).

Each entry records that the selectivity of a column group ``colgrp`` on
table ``T`` was estimated using the statistics in ``statlist``, how many
times that combination was used (``count``), and the ``errorfactor`` —
estimated divided by actual selectivity — the feedback system observed.

This is Table 1 of the paper, as a data structure.

Concurrency: the history is RCU-published. ``record`` (feedback from a
finished statement) builds a *replacement* entry, copies the entry dict
under the writer lock and swaps in a new epoch-stamped snapshot; the
sensitivity-analysis scans (``entries_for_group`` / ``entries_using_stat``)
iterate the published dict lock-free. Entries are never mutated after
publication, so a scan always sees internally consistent (count,
errorfactor) pairs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

ColumnGroup = Tuple[str, ...]

# New error observations are folded into the stored errorfactor with
# exponential smoothing so an entry tracks recent behaviour.
_SMOOTHING = 0.5

_HistoryKey = Tuple[str, ColumnGroup, Tuple[ColumnGroup, ...]]


def canonical_colgroup(columns: Iterable[str]) -> ColumnGroup:
    return tuple(sorted(c.lower() for c in columns))


def canonical_statlist(groups: Iterable[Iterable[str]]) -> Tuple[ColumnGroup, ...]:
    return tuple(sorted(canonical_colgroup(g) for g in groups))


@dataclass
class HistoryEntry:
    """One (T, colgrp, statlist) row of the StatHistory."""

    table: str
    colgrp: ColumnGroup
    statlist: Tuple[ColumnGroup, ...]
    count: int = 0
    errorfactor: float = 1.0

    @property
    def symmetric_accuracy(self) -> float:
        """``min(ef, 1/ef)``, the bounded form used in scoring.

        The paper multiplies ``errorfactor`` directly into an accuracy in
        [0, 1]; that is only well-defined for underestimates, so we use
        the symmetric variant (see DESIGN.md §4).
        """
        if self.errorfactor <= 0.0:
            return 0.0
        return min(self.errorfactor, 1.0 / self.errorfactor)


class HistorySnapshot:
    """One immutable, epoch-stamped view of every history entry."""

    __slots__ = ("version", "entries")

    def __init__(self, version: int, entries: Mapping[_HistoryKey, HistoryEntry]):
        self.version = version
        self.entries = entries


_EMPTY = HistorySnapshot(0, {})


class StatHistory:
    """All history entries, indexed for the two lookups the paper needs."""

    def __init__(self) -> None:
        self._snapshot: HistorySnapshot = _EMPTY
        # Serializes writers only; readers scan the published snapshot.
        self._lock = threading.Lock()

    @property
    def version(self) -> int:
        """Statistics epoch: bumps exactly when a new snapshot publishes."""
        return self._snapshot.version

    def __len__(self) -> int:
        return len(self._snapshot.entries)

    def record(
        self,
        table: str,
        colgrp: Iterable[str],
        statlist: Iterable[Iterable[str]],
        errorfactor: float,
    ) -> HistoryEntry:
        """Insert or update the entry for (table, colgrp, statlist).

        The previous entry (if any) is replaced, never mutated — readers
        holding an older snapshot keep a consistent view.
        """
        table = table.lower()
        group = canonical_colgroup(colgrp)
        stats = canonical_statlist(statlist)
        key = (table, group, stats)
        with self._lock:
            current = self._snapshot
            old = current.entries.get(key)
            if old is None:
                entry = HistoryEntry(
                    table=table, colgrp=group, statlist=stats, count=1,
                    errorfactor=errorfactor,
                )
            else:
                entry = HistoryEntry(
                    table=table,
                    colgrp=group,
                    statlist=stats,
                    count=old.count + 1,
                    errorfactor=(
                        _SMOOTHING * errorfactor
                        + (1.0 - _SMOOTHING) * old.errorfactor
                    ),
                )
            entries = dict(current.entries)
            entries[key] = entry
            self._snapshot = HistorySnapshot(current.version + 1, entries)
            return entry

    def entries_for_group(
        self, table: str, colgrp: Iterable[str]
    ) -> List[HistoryEntry]:
        """All entries whose target column group matches (Alg. 3 line 3)."""
        table = table.lower()
        group = canonical_colgroup(colgrp)
        return [
            e
            for e in self._snapshot.entries.values()
            if e.table == table and e.colgrp == group
        ]

    def entries_using_stat(
        self, table: str, colgrp: Iterable[str]
    ) -> List[HistoryEntry]:
        """Entries with this column group in their statlist (Alg. 4 line 6)."""
        table = table.lower()
        group = canonical_colgroup(colgrp)
        return [
            e
            for e in self._snapshot.entries.values()
            if e.table == table and group in e.statlist
        ]

    def all_entries(self) -> List[HistoryEntry]:
        return list(self._snapshot.entries.values())

    def total_count(self) -> int:
        return sum(e.count for e in self._snapshot.entries.values())
