"""Query results with per-phase timings."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..executor.feedback import FeedbackRecord
from ..jits import CompilationReport
from ..optimizer.plans import PlanNode
from ..types import Value

PHASE_COMPILE = "compile"
PHASE_EXECUTE = "execute"
PHASE_FETCH = "fetch"


@dataclass
class QueryResult:
    """Outcome of one statement."""

    statement_type: str  # select / insert / update / delete / ddl
    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Value, ...]] = field(default_factory=list)
    affected_rows: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    plan: Optional[PlanNode] = None
    jits_report: Optional[CompilationReport] = None
    feedback: List[FeedbackRecord] = field(default_factory=list)
    # Columnar output (one ColumnVector per column, aligned with
    # ``columns``), attached for every SELECT. The arrays are private
    # copies snapshotted inside the statement's lock scope, so the v2 wire
    # protocol can serialize them after the locks release without racing
    # concurrent DML.
    vectors: Optional[list] = None
    # MVCC provenance: the snapshot generations this statement observed
    # (SELECT: the pinned read view) or published (DML: the generations
    # its mutations became visible at), as ``{table: (epoch, stamp)}``.
    # The stamp is the engine statement clock an ``AS OF`` query can
    # replay this exact state with.
    snapshots: Optional[Dict[str, Tuple[int, int]]] = None

    @property
    def row_count(self) -> int:
        return len(self.rows) if self.rows else self.affected_rows

    @property
    def compile_time(self) -> float:
        return self.timings.get(PHASE_COMPILE, 0.0)

    @property
    def execution_time(self) -> float:
        return self.timings.get(PHASE_EXECUTE, 0.0)

    @property
    def fetch_time(self) -> float:
        return self.timings.get(PHASE_FETCH, 0.0)

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    def explain(self) -> str:
        if self.plan is None:
            return f"<{self.statement_type}>"
        return self.plan.explain()

    def modeled_execution_cost(self) -> float:
        """Deterministic plan-quality metric: the executed plan re-costed
        with its actual cardinalities (see ``actual_plan_cost``)."""
        if self.plan is None:
            return 0.0
        from ..optimizer.plans import actual_plan_cost

        return actual_plan_cost(self.plan)
