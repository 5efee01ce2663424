"""System-R style dynamic-programming join enumeration.

Works over bitmask-indexed subsets of a block's quantifiers. Cardinality of
a subset is computed once (product of filtered base cardinalities times the
selectivity of every join predicate internal to the subset); methods
considered are hash join (both build orientations), index nested-loop join
(when the inner is a single base table with a hash index on its join
column), and nested-loop join as the fallback / cross-product method.
Cross products are only enumerated when no join predicate connects a split,
so connected queries never waste planning time on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PlanningError
from ..predicates import JoinPredicate, LocalPredicate
from ..sql import ast
from . import cost
from .plans import HashJoin, IndexNLJoin, NestedLoopJoin, PlanNode


@dataclass
class BaseRelation:
    """Everything the enumerator needs to know about one quantifier."""

    alias: str
    plan: PlanNode
    filtered_rows: float
    table_name: Optional[str] = None  # None for derived tables
    indexed_columns: Tuple[str, ...] = ()  # hash-indexed columns
    local_predicates: Tuple[LocalPredicate, ...] = ()
    scan_residuals: Tuple[ast.BoolExpr, ...] = ()
    local_selectivity: float = 1.0  # selectivity its local predicates apply


def enumerate_joins(
    relations: Sequence[BaseRelation],
    join_predicates: Sequence[JoinPredicate],
    join_selectivities: Sequence[float],
) -> PlanNode:
    """Return the cheapest plan joining all relations."""
    if not relations:
        raise PlanningError("no relations to join")
    index_of = {relation.alias: i for i, relation in enumerate(relations)}
    if len(index_of) != len(relations):
        raise PlanningError("duplicate aliases in join enumeration")
    n = len(relations)
    full = (1 << n) - 1

    pred_masks: List[int] = []
    for predicate in join_predicates:
        mask = 0
        for alias in predicate.aliases():
            if alias not in index_of:
                raise PlanningError(f"join predicate references unknown {alias!r}")
            mask |= 1 << index_of[alias]
        pred_masks.append(mask)

    best: Dict[int, PlanNode] = {}
    rows: Dict[int, float] = {}
    for i, relation in enumerate(relations):
        best[1 << i] = relation.plan
        rows[1 << i] = max(relation.filtered_rows, 0.0)

    def subset_rows(mask: int) -> float:
        value = 1.0
        for i in range(n):
            if mask & (1 << i):
                value *= max(rows[1 << i], 0.001)
        for pred_mask, selectivity in zip(pred_masks, join_selectivities):
            if pred_mask & mask == pred_mask:
                value *= selectivity
        return value

    masks_by_size: Dict[int, List[int]] = {}
    for mask in range(1, full + 1):
        masks_by_size.setdefault(bin(mask).count("1"), []).append(mask)

    for size in range(2, n + 1):
        for mask in masks_by_size.get(size, []):
            out_rows = subset_rows(mask)
            rows[mask] = out_rows
            best_plan = _best_split(
                mask,
                out_rows,
                best,
                rows,
                relations,
                index_of,
                join_predicates,
                pred_masks,
                allow_cross=False,
            )
            if best_plan is None:
                best_plan = _best_split(
                    mask,
                    out_rows,
                    best,
                    rows,
                    relations,
                    index_of,
                    join_predicates,
                    pred_masks,
                    allow_cross=True,
                )
            if best_plan is None:
                raise PlanningError("join enumeration found no plan")
            best[mask] = best_plan
    return best[full]


def _best_split(
    mask: int,
    out_rows: float,
    best: Dict[int, PlanNode],
    rows: Dict[int, float],
    relations: Sequence[BaseRelation],
    index_of: Dict[str, int],
    join_predicates: Sequence[JoinPredicate],
    pred_masks: Sequence[int],
    allow_cross: bool,
) -> Optional[PlanNode]:
    winner: Optional[PlanNode] = None
    sub = (mask - 1) & mask
    while sub > 0:
        rest = mask ^ sub
        if sub < rest:  # visit each unordered split once; orient inside
            sub = (sub - 1) & mask
            continue
        left_plan = best.get(sub)
        right_plan = best.get(rest)
        if left_plan is not None and right_plan is not None:
            connecting = [
                p
                for p, pm in zip(join_predicates, pred_masks)
                if (pm & sub) and (pm & rest) and (pm & mask) == pm
            ]
            if connecting or allow_cross:
                for candidate in _join_candidates(
                    left_plan,
                    right_plan,
                    rows[sub],
                    rows[rest],
                    out_rows,
                    tuple(connecting),
                    sub,
                    rest,
                    relations,
                    index_of,
                ):
                    if winner is None or candidate.est_cost < winner.est_cost:
                        winner = candidate
        sub = (sub - 1) & mask
    return winner


def _join_candidates(
    left_plan: PlanNode,
    right_plan: PlanNode,
    left_rows: float,
    right_rows: float,
    out_rows: float,
    connecting: Tuple[JoinPredicate, ...],
    left_mask: int,
    right_mask: int,
    relations: Sequence[BaseRelation],
    index_of: Dict[str, int],
) -> List[PlanNode]:
    candidates: List[PlanNode] = []
    if connecting:
        for probe, build, probe_rows, build_rows in (
            (left_plan, right_plan, left_rows, right_rows),
            (right_plan, left_plan, right_rows, left_rows),
        ):
            candidates.append(
                HashJoin(
                    probe=probe,
                    build=build,
                    join_predicates=connecting,
                    est_rows=out_rows,
                    est_cost=probe.est_cost
                    + build.est_cost
                    + cost.hash_join_cost(build_rows, probe_rows, out_rows),
                )
            )
        for inner_mask, outer_plan, outer_rows in (
            (right_mask, left_plan, left_rows),
            (left_mask, right_plan, right_rows),
        ):
            inl = _index_nl_candidate(
                inner_mask, outer_plan, outer_rows, out_rows, connecting,
                relations, index_of,
            )
            if inl is not None:
                candidates.append(inl)
        candidates.append(
            NestedLoopJoin(
                outer=left_plan,
                inner=right_plan,
                join_predicates=connecting,
                est_rows=out_rows,
                est_cost=left_plan.est_cost
                + right_plan.est_cost
                + cost.nested_loop_cost(left_rows, right_rows, out_rows),
            )
        )
    else:
        candidates.append(
            NestedLoopJoin(
                outer=left_plan,
                inner=right_plan,
                join_predicates=(),
                est_rows=out_rows,
                est_cost=left_plan.est_cost
                + right_plan.est_cost
                + cost.nested_loop_cost(left_rows, right_rows, out_rows),
            )
        )
    return candidates


def _index_nl_candidate(
    inner_mask: int,
    outer_plan: PlanNode,
    outer_rows: float,
    out_rows: float,
    connecting: Tuple[JoinPredicate, ...],
    relations: Sequence[BaseRelation],
    index_of: Dict[str, int],
) -> Optional[IndexNLJoin]:
    if bin(inner_mask).count("1") != 1:
        return None
    inner = relations[inner_mask.bit_length() - 1]
    if inner.table_name is None:
        return None
    usable = [
        p
        for p in connecting
        if inner.alias in p.aliases()
        and p.column_for(inner.alias) in inner.indexed_columns
    ]
    if not usable:
        return None
    return IndexNLJoin(
        outer=outer_plan,
        inner_alias=inner.alias,
        inner_table=inner.table_name,
        inner_index_column=usable[0].column_for(inner.alias),
        join_predicates=connecting,
        inner_predicates=inner.local_predicates,
        inner_scan_residuals=inner.scan_residuals,
        est_rows=out_rows,
        est_cost=outer_plan.est_cost
        + cost.index_nl_join_cost(outer_rows, out_rows),
    )
