"""Grouped aggregation over batches."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..sql import ast
from ..types import DataType
from .expr import eval_bool, eval_expr
from .floatsum import exact_group_sums
from .joinutil import factorize
from .vector import Batch, ColumnVector


def collect_aggregates(exprs) -> List[ast.Aggregate]:
    """All distinct Aggregate nodes appearing in the given expressions."""
    found: List[ast.Aggregate] = []
    seen = set()

    def visit(node) -> None:
        if node is None:
            return
        if isinstance(node, ast.Aggregate):
            if node not in seen:
                seen.add(node)
                found.append(node)
            return
        if isinstance(node, ast.BinaryArith):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, ast.UnaryArith):
            visit(node.operand)
        elif isinstance(node, ast.Comparison):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, (ast.AndExpr, ast.OrExpr)):
            for operand in node.operands:
                visit(operand)
        elif isinstance(node, ast.NotExpr):
            visit(node.operand)
        elif isinstance(node, ast.BetweenExpr):
            visit(node.operand)
            visit(node.low)
            visit(node.high)
        elif isinstance(node, ast.InListExpr):
            visit(node.operand)

    for expr in exprs:
        visit(expr)
    return found


def group_ids(batch: Batch, keys: Tuple[ast.ColumnRef, ...]):
    """(gids, n_groups, representative row index per group)."""
    n = len(batch)
    if not keys:
        return np.zeros(n, dtype=np.int64), 1, np.zeros(1, dtype=np.int64)
    gids, first_idx = factorize([eval_expr(key, batch).values for key in keys])
    return gids, len(first_idx), first_idx


def _min_max_by_group(
    values: ColumnVector, gids: np.ndarray, n_groups: int, want_max: bool
) -> np.ndarray:
    """Row index of the min/max value within each group."""
    ranks = values.sort_ranks()
    order = np.lexsort((ranks, gids))
    sorted_gids = gids[order]
    if want_max:
        pos = np.searchsorted(sorted_gids, np.arange(n_groups), side="right") - 1
    else:
        pos = np.searchsorted(sorted_gids, np.arange(n_groups), side="left")
    return order[pos]


def compute_aggregate(
    agg: ast.Aggregate, batch: Batch, gids: np.ndarray, n_groups: int
) -> ColumnVector:
    """Per-group value of one aggregate function."""
    if agg.func is ast.AggFunc.COUNT and agg.argument is None:
        counts = np.bincount(gids, minlength=n_groups)
        return ColumnVector(counts.astype(np.int64), DataType.INT)

    argument = eval_expr(agg.argument, batch)
    if agg.func is ast.AggFunc.COUNT:
        if agg.distinct:
            _, first = factorize([gids, argument.values])
            counts = np.bincount(gids[first], minlength=n_groups)
            return ColumnVector(counts.astype(np.int64), DataType.INT)
        counts = np.bincount(gids, minlength=n_groups)
        return ColumnVector(counts.astype(np.int64), DataType.INT)

    if agg.func in (ast.AggFunc.SUM, ast.AggFunc.AVG):
        if argument.dtype is DataType.STRING:
            raise ExecutionError(f"{agg.func.value.upper()} over string values")
        values = argument.values.astype(np.float64)
        if agg.distinct:
            # One row per distinct (group, value) pair, in that ascending
            # order: each group adds its distinct values smallest first.
            _, first = factorize([gids, values])
            sums = np.bincount(
                gids[first], weights=values[first], minlength=n_groups
            )
            counts = np.bincount(gids[first], minlength=n_groups)
        else:
            if argument.dtype is DataType.FLOAT and np.isfinite(values).all():
                # Exactly-rounded, order-independent float sums: the same
                # answer the parallel fragment path merges shard partials
                # into, keeping sequential and sharded plans bit-identical.
                sums = exact_group_sums(values, gids, n_groups)
            else:
                sums = np.bincount(gids, weights=values, minlength=n_groups)
            counts = np.bincount(gids, minlength=n_groups)
        if agg.func is ast.AggFunc.SUM:
            if argument.dtype is DataType.INT:
                return ColumnVector(
                    np.round(sums).astype(np.int64), DataType.INT
                )
            return ColumnVector(sums, DataType.FLOAT)
        averages = np.divide(
            sums, counts, out=np.zeros(len(sums)), where=counts > 0
        )
        return ColumnVector(averages, DataType.FLOAT)

    if agg.func in (ast.AggFunc.MIN, ast.AggFunc.MAX):
        if len(batch) == 0:
            # No NULLs in this engine; empty input yields a zero vector.
            zeros = np.zeros(n_groups, dtype=argument.values.dtype)
            return ColumnVector(zeros, argument.dtype, argument.dictionary)
        idx = _min_max_by_group(
            argument, gids, n_groups, want_max=agg.func is ast.AggFunc.MAX
        )
        return argument.take(idx)

    raise ExecutionError(f"unsupported aggregate {agg.func}")


def aggregate_batch(
    batch: Batch,
    group_keys: Tuple[ast.ColumnRef, ...],
    items,
    output_names: Tuple[str, ...],
    having: Optional[ast.BoolExpr],
) -> Batch:
    """Full GROUP BY / HAVING / projection pipeline for one block."""
    gids, n_groups, representatives = group_ids(batch, group_keys)
    if len(batch) == 0 and group_keys:
        n_groups = 0
        representatives = np.empty(0, dtype=np.int64)

    # Group-level batch exposes the key columns so that non-aggregate
    # references in the select list resolve per group.
    group_columns: Dict[Tuple[str, str], ColumnVector] = {}
    for key in group_keys:
        vector = eval_expr(key, batch)
        group_columns[((key.qualifier or "").lower(), key.name.lower())] = (
            vector.take(representatives)
        )
    group_batch = Batch(group_columns, n_groups)

    needed = collect_aggregates(
        [item.expr for item in items] + ([having] if having is not None else [])
    )
    computed: Dict[ast.Aggregate, ColumnVector] = {}
    for agg in needed:
        computed[agg] = compute_aggregate(agg, batch, gids, n_groups)

    return finalize_aggregate(group_batch, computed, items, output_names, having)


def finalize_aggregate(
    group_batch: Batch,
    computed: Dict[ast.Aggregate, ColumnVector],
    items,
    output_names: Tuple[str, ...],
    having: Optional[ast.BoolExpr],
) -> Batch:
    """HAVING + projection over per-group aggregate vectors.

    Shared tail of the sequential :func:`aggregate_batch` pipeline and
    the parallel fused-aggregate fragment: both produce ``group_batch``
    (key columns at group representatives) plus ``computed`` (one vector
    per distinct aggregate) and hand off here.
    """

    def resolver(agg: ast.Aggregate) -> ColumnVector:
        return computed[agg]

    if having is not None:
        mask = eval_bool(having, group_batch, resolver)
        group_batch = group_batch.mask(mask)
        computed = {a: v.mask(mask) for a, v in computed.items()}

        def resolver(agg: ast.Aggregate) -> ColumnVector:  # noqa: F811
            return computed[agg]

    out: Dict[Tuple[str, str], ColumnVector] = {}
    for item, name in zip(items, output_names):
        out[("", name.lower())] = eval_expr(item.expr, group_batch, resolver)
    return Batch(out, len(group_batch))
