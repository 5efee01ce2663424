"""Physical plan nodes.

Every node carries its estimated output cardinality (``est_rows``) and the
cumulative estimated cost (``est_cost``). The executor later records the
*actual* cardinality next to the estimate — that comparison is the LEO-style
feedback that drives the JITS StatHistory.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from ..predicates import JoinPredicate, LocalPredicate
from ..sql import ast


@dataclass
class PlanNode:
    est_rows: float = 0.0
    est_cost: float = 0.0
    actual_rows: Optional[int] = None  # filled in by the executor
    actual_base_rows: Optional[int] = None  # scans: rows before filtering
    actual_probes: Optional[int] = None  # index NL joins: probe count

    def children(self) -> List["PlanNode"]:
        return []

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        actual = "" if self.actual_rows is None else f" actual={self.actual_rows}"
        lines = [
            f"{pad}{self.label()}  "
            f"(rows={self.est_rows:.1f} cost={self.est_cost:.1f}{actual})"
        ]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def walk(self) -> List["PlanNode"]:
        nodes = [self]
        for child in self.children():
            nodes.extend(child.walk())
        return nodes

    def clone(self) -> "PlanNode":
        """Structural copy with fresh ``actual_*`` slots.

        The executor writes observed cardinalities onto plan nodes, so a
        plan shared through the plan cache must never be executed
        directly by concurrent statements — each execution runs against
        its own node tree. Predicates, AST fragments and query blocks
        are immutable at execution time and stay shared.
        """
        node = copy.copy(self)
        node.actual_rows = None
        node.actual_base_rows = None
        node.actual_probes = None
        for f in fields(node):
            value = getattr(node, f.name)
            if isinstance(value, PlanNode):
                setattr(node, f.name, value.clone())
        return node


@dataclass
class SeqScan(PlanNode):
    alias: str = ""
    table_name: str = ""
    predicates: Tuple[LocalPredicate, ...] = ()
    scan_residuals: Tuple[ast.BoolExpr, ...] = ()
    base_rows: float = 0.0

    def label(self) -> str:
        preds = f" [{len(self.predicates)} preds]" if self.predicates else ""
        return f"SeqScan {self.table_name} as {self.alias}{preds}"


@dataclass
class IndexScan(PlanNode):
    alias: str = ""
    table_name: str = ""
    index_column: str = ""
    index_kind: str = "hash"  # "hash" | "sorted"
    index_predicate: Optional[LocalPredicate] = None
    remaining: Tuple[LocalPredicate, ...] = ()
    scan_residuals: Tuple[ast.BoolExpr, ...] = ()
    base_rows: float = 0.0

    def label(self) -> str:
        return (
            f"IndexScan({self.index_kind}) {self.table_name} as {self.alias} "
            f"on {self.index_column}"
        )


@dataclass
class DerivedScan(PlanNode):
    alias: str = ""
    child_plan: Optional[PlanNode] = None
    child_block: object = None  # QueryBlock; avoids a circular import
    predicates: Tuple[LocalPredicate, ...] = ()  # parent's local preds on it
    scan_residuals: Tuple[ast.BoolExpr, ...] = ()

    def children(self) -> List[PlanNode]:
        return [self.child_plan] if self.child_plan is not None else []

    def label(self) -> str:
        return f"DerivedScan {self.alias}"


@dataclass
class HashJoin(PlanNode):
    probe: Optional[PlanNode] = None  # left / outer
    build: Optional[PlanNode] = None  # right, hashed
    join_predicates: Tuple[JoinPredicate, ...] = ()

    def children(self) -> List[PlanNode]:
        return [self.probe, self.build]

    def label(self) -> str:
        conds = ", ".join(str(j) for j in self.join_predicates)
        return f"HashJoin on ({conds})"


@dataclass
class IndexNLJoin(PlanNode):
    outer: Optional[PlanNode] = None
    inner_alias: str = ""
    inner_table: str = ""
    inner_index_column: str = ""
    join_predicates: Tuple[JoinPredicate, ...] = ()
    inner_predicates: Tuple[LocalPredicate, ...] = ()
    inner_scan_residuals: Tuple[ast.BoolExpr, ...] = ()

    def children(self) -> List[PlanNode]:
        return [self.outer]

    def label(self) -> str:
        conds = ", ".join(str(j) for j in self.join_predicates)
        return (
            f"IndexNLJoin inner={self.inner_table} as {self.inner_alias} "
            f"via {self.inner_index_column} on ({conds})"
        )


@dataclass
class NestedLoopJoin(PlanNode):
    outer: Optional[PlanNode] = None
    inner: Optional[PlanNode] = None
    join_predicates: Tuple[JoinPredicate, ...] = ()

    def children(self) -> List[PlanNode]:
        return [self.outer, self.inner]

    def label(self) -> str:
        if not self.join_predicates:
            return "NestedLoopJoin (cross)"
        conds = ", ".join(str(j) for j in self.join_predicates)
        return f"NestedLoopJoin on ({conds})"


@dataclass
class Filter(PlanNode):
    child: Optional[PlanNode] = None
    residuals: Tuple[ast.BoolExpr, ...] = ()

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"Filter [{len(self.residuals)} residuals]"


@dataclass
class Aggregate(PlanNode):
    child: Optional[PlanNode] = None
    group_keys: Tuple[ast.ColumnRef, ...] = ()
    items: Tuple[ast.SelectItem, ...] = ()
    output_names: Tuple[str, ...] = ()
    having: Optional[ast.BoolExpr] = None

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        keys = ", ".join(str(k) for k in self.group_keys) or "<all>"
        return f"Aggregate by [{keys}]"


@dataclass
class Project(PlanNode):
    child: Optional[PlanNode] = None
    items: Tuple[ast.SelectItem, ...] = ()
    output_names: Tuple[str, ...] = ()

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"Project [{', '.join(self.output_names)}]"


@dataclass
class Distinct(PlanNode):
    child: Optional[PlanNode] = None

    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class Sort(PlanNode):
    child: Optional[PlanNode] = None
    order_by: Tuple[ast.OrderItem, ...] = ()

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        keys = ", ".join(
            f"{o.expr}{' DESC' if o.descending else ''}" for o in self.order_by
        )
        return f"Sort [{keys}]"


@dataclass
class Limit(PlanNode):
    child: Optional[PlanNode] = None
    count: int = 0

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"Limit {self.count}"


def actual_plan_cost(root: PlanNode) -> float:
    """Re-cost an *executed* plan with its observed cardinalities.

    This is the deterministic plan-quality metric the benchmarks report
    alongside wall-clock time: same plan + same data -> same number, no
    machine noise. Units are the calibrated cost model's (~microseconds).
    """
    from . import cost

    total = 0.0
    for node in root.walk():
        out = float(node.actual_rows or 0)
        child_rows = [float(c.actual_rows or 0) for c in node.children()]
        if isinstance(node, SeqScan):
            total += cost.seq_scan_cost(
                float(node.actual_base_rows or 0),
                len(node.predicates) + len(node.scan_residuals),
            )
        elif isinstance(node, IndexScan):
            total += cost.index_scan_cost(
                float(node.actual_base_rows or 0),
                len(node.remaining) + len(node.scan_residuals),
            )
        elif isinstance(node, DerivedScan):
            inner = child_rows[0] if child_rows else 0.0
            total += cost.materialize_cost(inner)
        elif isinstance(node, HashJoin):
            probe_rows = child_rows[0] if child_rows else 0.0
            build_rows = child_rows[1] if len(child_rows) > 1 else 0.0
            total += cost.hash_join_cost(build_rows, probe_rows, out)
        elif isinstance(node, IndexNLJoin):
            total += cost.index_nl_join_cost(float(node.actual_probes or 0), out)
        elif isinstance(node, NestedLoopJoin):
            outer_rows = child_rows[0] if child_rows else 0.0
            inner_rows = child_rows[1] if len(child_rows) > 1 else 0.0
            total += cost.nested_loop_cost(outer_rows, inner_rows, out)
        elif isinstance(node, Filter):
            total += cost.filter_cost(
                child_rows[0] if child_rows else 0.0, len(node.residuals)
            )
        elif isinstance(node, Aggregate):
            total += cost.aggregate_cost(
                child_rows[0] if child_rows else 0.0, out
            )
        elif isinstance(node, Project):
            total += (child_rows[0] if child_rows else 0.0) * cost.CPU_OPERATOR_COST
        elif isinstance(node, Distinct):
            total += cost.distinct_cost(child_rows[0] if child_rows else 0.0)
        elif isinstance(node, Sort):
            total += cost.sort_cost(child_rows[0] if child_rows else 0.0)
        # Limit: free.
    return total


def scan_nodes(root: PlanNode) -> List[PlanNode]:
    """All base-access nodes in a plan (for feedback collection)."""
    result = []
    for node in root.walk():
        if isinstance(node, (SeqScan, IndexScan)):
            result.append(node)
        elif isinstance(node, IndexNLJoin):
            result.append(node)  # the inner side is a base access too
    return result
