"""Execution feedback (the LEO analogue).

After a query runs, compare the optimizer's estimated selectivity for each
base-table access with the actually observed one, and emit
:class:`FeedbackRecord` entries. The JITS StatHistory consumes these: each
record carries the ``errorfactor = estimated / actual`` the paper's
sensitivity analysis is built on (Section 3.3.1, citing LEO [14]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..optimizer.optimizer import OptimizedQuery
from ..predicates import PredicateGroup
from .executor import ExecutionResult

# Actual selectivities are floored so errorfactors stay finite when a
# predicate matched nothing (LEO does the same with a minimum cardinality).
MIN_ACTUAL_ROWS = 0.5


@dataclass
class FeedbackRecord:
    """One (table, predicate-group) estimate/actual comparison."""

    table: str
    group: PredicateGroup
    statlist: Tuple[Tuple[str, ...], ...]
    source: str
    estimated_selectivity: float
    actual_selectivity: float

    @property
    def errorfactor(self) -> float:
        actual = max(self.actual_selectivity, 1e-12)
        return self.estimated_selectivity / actual

    @property
    def symmetric_accuracy(self) -> float:
        """min(ef, 1/ef): 1 when exact, → 0 as the error grows."""
        ef = self.errorfactor
        if ef <= 0.0:
            return 0.0
        return min(ef, 1.0 / ef)


def collect_feedback(
    optimized: OptimizedQuery, result: ExecutionResult
) -> List[FeedbackRecord]:
    """Match scan estimates with scan observations, per quantifier."""
    records: List[FeedbackRecord] = []
    observations = result.scan_observations
    for estimate in optimized.all_scan_estimates():
        if estimate.group is None or estimate.estimate is None:
            continue
        observation = observations.get(estimate.alias)
        if observation is None or observation.matched_rows < 0:
            # Accesses folded into an index nested-loop probe have no
            # independently observable local-predicate cardinality.
            continue
        base = max(observation.base_rows, 1)
        actual = max(float(observation.matched_rows), MIN_ACTUAL_ROWS) / base
        records.append(
            FeedbackRecord(
                table=observation.table_name.lower(),
                group=estimate.group,
                statlist=estimate.estimate.statlist,
                source=estimate.estimate.source,
                estimated_selectivity=max(estimate.estimate.clamped(), 1e-12),
                actual_selectivity=actual,
            )
        )
    return records
