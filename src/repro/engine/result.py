"""Query results with per-phase timings."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..executor.executor import ExecutionResult
from ..executor.feedback import FeedbackRecord
from ..executor.vector import ColumnVector
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
    affected_rows: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    plan: Optional[PlanNode] = None
    jits_report: Optional[CompilationReport] = None
    feedback: List[FeedbackRecord] = field(default_factory=list)
    # SELECT only: the executor's output, kept as produced. Its arrays
    # are either read-only snapshot-generation arrays or private gathers,
    # so holding the reference is the pin: the wire encoder and ``rows``
    # may read them long after the statement's read view was released,
    # whatever DML has committed since.
    execution: Optional[ExecutionResult] = None
    # MVCC provenance: the snapshot generations this statement observed
    # (SELECT: the pinned read view) or published (DML: the generations
    # its mutations became visible at), as ``{table: (epoch, stamp)}``.
    # The stamp is the engine statement clock an ``AS OF`` query can
    # replay this exact state with.
    snapshots: Optional[Dict[str, Tuple[int, int]]] = None

    @property
    def vectors(self) -> Optional[List[ColumnVector]]:
        """Columnar output, one vector per entry of ``columns``."""
        execution = self.execution
        if execution is None:
            return None
        return [
            execution.batch.column("", name)
            for name in execution.output_names
        ]

    @cached_property
    def rows(self) -> List[Tuple[Value, ...]]:
        """The result as Python tuples, decoded on first access (the
        fetch phase of the paper's Table 3; its time joins ``timings``)."""
        if self.execution is None:
            return []
        started = time.perf_counter()
        rows = self.execution.rows()
        self.timings[PHASE_FETCH] += time.perf_counter() - started
        return rows

    @property
    def row_count(self) -> int:
        if self.execution is None:
            return self.affected_rows
        return self.execution.row_count

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
