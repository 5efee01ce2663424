"""Plan generation and costing for one query block (tree).

This is the "Plan Generation & Costing" box of the paper's Figure 1: it
consumes the statistics context (QSS profile + archive + catalog) and emits
the cheapest plan. It also records, per base-table access, *which* estimate
was used — the raw material for execution feedback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import PlanningError
from ..predicates import LocalPredicate, PredOp, PredicateGroup
from ..sql import ast
from ..sql.qgm import QueryBlock
from . import cost
from .context import DEFAULT_RESIDUAL_SELECTIVITY, StatsContext
from .joinenum import BaseRelation, enumerate_joins
from .plans import (
    Aggregate,
    DerivedScan,
    Distinct,
    Filter,
    IndexScan,
    Limit,
    PlanNode,
    Project,
    SeqScan,
    Sort,
)
from .selectivity import (
    SOURCE_DEFAULT,
    SelectivityEstimate,
    estimate_group_selectivity,
    estimate_join_selectivity,
    estimate_table_cardinality,
)


@dataclass
class ScanEstimate:
    """The optimizer's belief about one base-table access."""

    alias: str
    table_name: str
    group: Optional[PredicateGroup]
    estimate: Optional[SelectivityEstimate]
    base_rows: float
    est_rows: float


@dataclass
class OptimizedQuery:
    """A plan plus the estimates that produced it."""

    root: PlanNode
    block: QueryBlock
    scan_estimates: Dict[str, ScanEstimate] = field(default_factory=dict)
    child_queries: List["OptimizedQuery"] = field(default_factory=list)

    def explain(self) -> str:
        return self.root.explain()

    def all_scan_estimates(self) -> List[ScanEstimate]:
        result = list(self.scan_estimates.values())
        for child in self.child_queries:
            result.extend(child.all_scan_estimates())
        return result

    def clone_for_execution(self) -> "OptimizedQuery":
        """Copy with a private plan-node tree (see ``PlanNode.clone``).

        Estimates and the query block are read-only during execution and
        stay shared; only the nodes the executor annotates are copied.
        """
        return OptimizedQuery(
            root=self.root.clone(),
            block=self.block,
            scan_estimates=self.scan_estimates,
            child_queries=self.child_queries,
        )


class Optimizer:
    """Cost-based optimizer over a statistics context."""

    def __init__(self, ctx: StatsContext):
        self.ctx = ctx

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def optimize(self, block: QueryBlock) -> OptimizedQuery:
        result = OptimizedQuery(root=None, block=block)  # type: ignore[arg-type]

        relations: List[BaseRelation] = []
        for alias, quantifier in block.quantifiers.items():
            if quantifier.is_base:
                relation, scan_estimate = self._plan_base_access(block, alias)
                result.scan_estimates[alias] = scan_estimate
            else:
                child = self.optimize(quantifier.child)
                result.child_queries.append(child)
                child_rows = max(child.root.est_rows, 1.0)
                scan = DerivedScan(
                    alias=alias,
                    child_plan=child.root,
                    child_block=quantifier.child,
                    predicates=tuple(block.local_predicates_for(alias)),
                    scan_residuals=tuple(block.scan_residuals.get(alias, ())),
                    est_rows=self._apply_local_estimate(block, alias, child_rows)[0],
                    est_cost=child.root.est_cost
                    + cost.materialize_cost(child_rows),
                )
                relation = BaseRelation(
                    alias=alias,
                    plan=scan,
                    filtered_rows=scan.est_rows,
                    table_name=None,
                )
            if quantifier.is_base:
                relations.append(relation)
            else:
                relations.append(relation)

        join_sels = [
            estimate_join_selectivity(
                self.ctx,
                self._base_table(block, p.left_alias),
                self._base_table(block, p.right_alias),
                p,
            )
            for p in block.join_predicates
        ]
        if len(relations) == 1:
            root = relations[0].plan
        else:
            root = enumerate_joins(relations, block.join_predicates, join_sels)

        if block.residuals:
            out_rows = root.est_rows * (
                DEFAULT_RESIDUAL_SELECTIVITY ** len(block.residuals)
            )
            root = Filter(
                child=root,
                residuals=tuple(block.residuals),
                est_rows=out_rows,
                est_cost=root.est_cost
                + cost.filter_cost(root.est_rows, len(block.residuals)),
            )

        root = self._plan_output(block, root)
        result.root = root
        return result

    # ------------------------------------------------------------------
    # Base access paths
    # ------------------------------------------------------------------
    def _plan_base_access(
        self, block: QueryBlock, alias: str
    ) -> Tuple[BaseRelation, ScanEstimate]:
        table_name = block.quantifiers[alias].table_name
        table = self.ctx.database.table(table_name)
        base_rows, _ = estimate_table_cardinality(self.ctx, table_name)
        predicates = tuple(block.local_predicates_for(alias))
        residuals = tuple(block.scan_residuals.get(alias, ()))

        group: Optional[PredicateGroup] = None
        estimate: Optional[SelectivityEstimate] = None
        selectivity = 1.0
        if predicates:
            group = PredicateGroup.from_iterable(predicates)
            estimate = estimate_group_selectivity(self.ctx, table, group)
            selectivity = estimate.clamped()
        residual_sel = self._residual_selectivity(table.name, alias, residuals)
        est_rows = max(base_rows * selectivity * residual_sel, 0.001)

        seq = SeqScan(
            alias=alias,
            table_name=table.name,
            predicates=predicates,
            scan_residuals=residuals,
            base_rows=base_rows,
            est_rows=est_rows,
            est_cost=cost.seq_scan_cost(base_rows, len(predicates) + len(residuals)),
        )
        best: PlanNode = seq
        for candidate in self._index_scan_candidates(
            block, alias, table, predicates, residuals, base_rows, est_rows,
            selectivity,
        ):
            if candidate.est_cost < best.est_cost:
                best = candidate

        indexed = tuple(
            sorted(column for kind, column in table.indexes if kind == "hash")
        )
        relation = BaseRelation(
            alias=alias,
            plan=best,
            filtered_rows=est_rows,
            table_name=table.name,
            indexed_columns=indexed,
            local_predicates=predicates,
            scan_residuals=residuals,
            local_selectivity=selectivity * residual_sel,
        )
        scan_estimate = ScanEstimate(
            alias=alias,
            table_name=table.name,
            group=group,
            estimate=estimate,
            base_rows=base_rows,
            est_rows=est_rows,
        )
        return relation, scan_estimate

    def _index_scan_candidates(
        self,
        block: QueryBlock,
        alias: str,
        table,
        predicates: Tuple[LocalPredicate, ...],
        residuals: Tuple[ast.BoolExpr, ...],
        base_rows: float,
        est_rows: float,
        group_selectivity: float,
    ) -> List[IndexScan]:
        candidates: List[IndexScan] = []
        # Existence checks against the declared set: planning builds no
        # index.
        indexes = table.indexes
        for predicate in predicates:
            column = predicate.column.lower()
            kind = None
            if predicate.op is PredOp.EQ and ("hash", column) in indexes:
                kind = "hash"
            elif predicate.op in (
                PredOp.LT,
                PredOp.LE,
                PredOp.GT,
                PredOp.GE,
                PredOp.BETWEEN,
            ) and ("sorted", column) in indexes:
                kind = "sorted"
            if kind is None:
                continue
            single = estimate_group_selectivity(
                self.ctx, table, PredicateGroup.of(predicate)
            )
            matching = max(base_rows * single.clamped(), 0.001)
            remaining = tuple(p for p in predicates if p is not predicate)
            candidates.append(
                IndexScan(
                    alias=alias,
                    table_name=table.name,
                    index_column=predicate.column,
                    index_kind=kind,
                    index_predicate=predicate,
                    remaining=remaining,
                    scan_residuals=residuals,
                    base_rows=base_rows,
                    est_rows=est_rows,
                    est_cost=cost.index_scan_cost(
                        matching, len(remaining) + len(residuals)
                    ),
                )
            )
        return candidates

    def _residual_selectivity(
        self, table_name: str, alias: str, residuals: Tuple[ast.BoolExpr, ...]
    ) -> float:
        """Combined selectivity of non-simple predicates on one scan.

        Consults the JITS residual-statistics store (paper Section 3.4,
        footnote 1) when present; otherwise the classic default guess.
        """
        selectivity = 1.0
        for residual in residuals:
            observed = None
            if self.ctx.residuals is not None:
                from ..predicates import residual_key

                observed = self.ctx.residuals.lookup(
                    table_name, residual_key(residual, alias), self.ctx.now
                )
            selectivity *= (
                observed if observed is not None else DEFAULT_RESIDUAL_SELECTIVITY
            )
        return selectivity

    def _base_table(self, block: QueryBlock, alias: str):
        quantifier = block.quantifiers.get(alias)
        if quantifier is None or not quantifier.is_base:
            return None
        return self.ctx.database.table(quantifier.table_name)

    def _apply_local_estimate(
        self, block: QueryBlock, alias: str, in_rows: float
    ) -> Tuple[float, float]:
        """Estimated (rows, selectivity) of local predicates on a derived
        quantifier (no statistics exist on temporary results)."""
        predicates = block.local_predicates_for(alias)
        residuals = block.scan_residuals.get(alias, ())
        selectivity = 1.0
        for predicate in predicates:
            from .selectivity import default_predicate_selectivity

            selectivity *= default_predicate_selectivity(predicate)
        selectivity *= DEFAULT_RESIDUAL_SELECTIVITY ** len(residuals)
        return max(in_rows * selectivity, 0.001), selectivity

    # ------------------------------------------------------------------
    # Output shaping: aggregate / project / distinct / sort / limit
    # ------------------------------------------------------------------
    def _plan_output(self, block: QueryBlock, root: PlanNode) -> PlanNode:
        names = tuple(block.output_names())
        if block.has_aggregates:
            groups = self._estimate_group_count(block, root.est_rows)
            root = Aggregate(
                child=root,
                group_keys=tuple(block.group_by),
                items=tuple(block.select_items),
                output_names=names,
                having=block.having,
                est_rows=groups,
                est_cost=root.est_cost
                + cost.aggregate_cost(root.est_rows, groups),
            )
        else:
            root = Project(
                child=root,
                items=tuple(block.select_items),
                output_names=names,
                est_rows=root.est_rows,
                est_cost=root.est_cost + root.est_rows * cost.CPU_OPERATOR_COST,
            )
        if block.distinct:
            out = max(1.0, root.est_rows * 0.5)
            root = Distinct(
                child=root,
                est_rows=out,
                est_cost=root.est_cost + cost.distinct_cost(root.est_rows),
            )
        if block.order_by:
            # Sort runs above the projection, so order keys are rewritten
            # to references into the block's output columns.
            rewritten = []
            for order in block.order_by:
                target = None
                for output in block.outputs:
                    if str(output.expr) == str(order.expr):
                        target = ast.ColumnRef(name=output.name)
                        break
                if target is None and isinstance(order.expr, ast.ColumnRef):
                    lowered = order.expr.name.lower()
                    for output in block.outputs:
                        if output.name == lowered:
                            target = ast.ColumnRef(name=output.name)
                            break
                if target is None:
                    raise PlanningError(
                        f"ORDER BY {order.expr} must reference an output column"
                    )
                rewritten.append(
                    ast.OrderItem(expr=target, descending=order.descending)
                )
            root = Sort(
                child=root,
                order_by=tuple(rewritten),
                est_rows=root.est_rows,
                est_cost=root.est_cost + cost.sort_cost(root.est_rows),
            )
        if block.limit is not None:
            root = Limit(
                child=root,
                count=block.limit,
                est_rows=min(root.est_rows, float(block.limit)),
                est_cost=root.est_cost,
            )
        return root

    def _estimate_group_count(self, block: QueryBlock, in_rows: float) -> float:
        if not block.group_by:
            return 1.0
        ndv_product = 1.0
        for key in block.group_by:
            quantifier = block.quantifiers.get(key.qualifier)
            ndv = None
            if quantifier is not None and quantifier.is_base:
                stats = self.ctx.catalog.column_stats(
                    quantifier.table_name, key.name
                )
                if stats is not None:
                    ndv = stats.n_distinct
            ndv_product *= ndv if ndv is not None else 10.0
        return max(1.0, min(in_rows, ndv_product))
