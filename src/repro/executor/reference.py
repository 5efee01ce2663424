"""A deliberately naive reference executor, used only by the test suite.

Evaluates a bound query block row-at-a-time over the full cross product of
its quantifiers. Unusable for real workloads, trivially correct — which is
the point: property tests compare the optimized executor's output against
this one on randomized small queries.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

from ..errors import ExecutionError
from ..sql import ast
from ..sql.qgm import QueryBlock
from ..storage import Database
from ..types import Value


def run_reference(block: QueryBlock, database: Database) -> List[Tuple[Value, ...]]:
    """All result rows of the block, unordered unless ORDER BY is given."""
    rows = _join_rows(block, database)
    if block.has_aggregates:
        out = _aggregate(block, rows)
    else:
        out = [
            tuple(_eval(item.expr, env) for item in block.select_items)
            for env in rows
        ]
    if block.distinct:
        seen = set()
        deduped = []
        for row in out:
            if row not in seen:
                seen.add(row)
                deduped.append(row)
        out = deduped
    if block.order_by:
        out = _order(block, out)
    if block.limit is not None:
        out = out[: block.limit]
    return out


Env = Dict[Tuple[str, str], Value]


def _quantifier_rows(block: QueryBlock, database: Database, alias: str) -> List[Env]:
    quantifier = block.quantifiers[alias]
    if quantifier.is_base:
        table = database.table(quantifier.table_name)
        names = table.schema.column_names()
        out = []
        for row in table.fetch_rows(None, names):
            out.append(
                {(alias, n.lower()): v for n, v in zip(names, row)}
            )
        return out
    child_rows = run_reference(quantifier.child, database)
    names = quantifier.child.output_names()
    return [
        {(alias, n): v for n, v in zip(names, row)} for row in child_rows
    ]


def _join_rows(block: QueryBlock, database: Database) -> List[Env]:
    # Local predicates and single-alias residuals are applied per
    # quantifier BEFORE the cross product — semantically identical for a
    # conjunctive WHERE, and it keeps the naive product tractable.
    per_alias = []
    for alias in block.quantifiers:
        rows = _quantifier_rows(block, database, alias)
        predicates = block.local_predicates_for(alias)
        residuals = block.scan_residuals.get(alias, [])
        filtered = [
            env
            for env in rows
            if all(_local_holds(p, env) for p in predicates)
            and all(_bool_eval(r, env) for r in residuals)
        ]
        per_alias.append(filtered)
    results: List[Env] = []
    for combo in itertools.product(*per_alias):
        env: Env = {}
        for part in combo:
            env.update(part)
        if _passes(block, env):
            results.append(env)
    return results


def _passes(block: QueryBlock, env: Env) -> bool:
    for join in block.join_predicates:
        if env[(join.left_alias, join.left_column)] != env[
            (join.right_alias, join.right_column)
        ]:
            return False
    for residual in block.residuals:
        if not _bool_eval(residual, env):
            return False
    return True


def _local_holds(predicate, env: Env) -> bool:
    from ..predicates import PredOp

    value = env[(predicate.alias, predicate.column)]
    op = predicate.op
    if op is PredOp.EQ:
        return value == predicate.value
    if op is PredOp.NE:
        return value != predicate.value
    if op is PredOp.IN:
        return value in predicate.values
    if op is PredOp.BETWEEN:
        return predicate.values[0] <= value <= predicate.values[1]
    if op is PredOp.LT:
        return value < predicate.value
    if op is PredOp.LE:
        return value <= predicate.value
    if op is PredOp.GT:
        return value > predicate.value
    if op is PredOp.GE:
        return value >= predicate.value
    raise ExecutionError(f"unhandled op {op}")


def _eval(expr: ast.Expr, env: Env, aggs: Optional[Dict] = None) -> Value:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        return env[((expr.qualifier or "").lower(), expr.name.lower())]
    if isinstance(expr, ast.UnaryArith):
        return -_eval(expr.operand, env, aggs)
    if isinstance(expr, ast.BinaryArith):
        left = _eval(expr.left, env, aggs)
        right = _eval(expr.right, env, aggs)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    if isinstance(expr, ast.Aggregate):
        if aggs is None:
            raise ExecutionError("aggregate outside aggregation")
        return aggs[expr]
    raise ExecutionError(f"cannot evaluate {expr!r}")


def _bool_eval(expr: ast.BoolExpr, env: Env, aggs: Optional[Dict] = None) -> bool:
    if isinstance(expr, ast.Comparison):
        left = _eval(expr.left, env, aggs)
        right = _eval(expr.right, env, aggs)
        return {
            ast.CompareOp.EQ: left == right,
            ast.CompareOp.NE: left != right,
            ast.CompareOp.LT: left < right,
            ast.CompareOp.LE: left <= right,
            ast.CompareOp.GT: left > right,
            ast.CompareOp.GE: left >= right,
        }[expr.op]
    if isinstance(expr, ast.BetweenExpr):
        value = _eval(expr.operand, env, aggs)
        result = _eval(expr.low, env, aggs) <= value <= _eval(expr.high, env, aggs)
        return not result if expr.negated else result
    if isinstance(expr, ast.InListExpr):
        value = _eval(expr.operand, env, aggs)
        result = value in {item.value for item in expr.items}
        return not result if expr.negated else result
    if isinstance(expr, ast.AndExpr):
        return all(_bool_eval(o, env, aggs) for o in expr.operands)
    if isinstance(expr, ast.OrExpr):
        return any(_bool_eval(o, env, aggs) for o in expr.operands)
    if isinstance(expr, ast.NotExpr):
        return not _bool_eval(expr.operand, env, aggs)
    raise ExecutionError(f"cannot evaluate {expr!r}")


def _aggregate(block: QueryBlock, rows: List[Env]) -> List[Tuple[Value, ...]]:
    from .aggregate import collect_aggregates

    groups: Dict[Tuple[Value, ...], List[Env]] = {}
    for env in rows:
        key = tuple(
            env[(k.qualifier, k.name)] for k in block.group_by
        )
        groups.setdefault(key, []).append(env)
    if not block.group_by and not groups:
        groups[()] = []
    needed = collect_aggregates(
        [i.expr for i in block.select_items]
        + ([block.having] if block.having is not None else [])
    )
    out: List[Tuple[Value, ...]] = []
    for key, members in groups.items():
        aggs = {agg: _agg_value(agg, members) for agg in needed}
        env: Env = {}
        for ref, value in zip(block.group_by, key):
            env[(ref.qualifier, ref.name)] = value
        if block.having is not None and not _bool_eval(block.having, env, aggs):
            continue
        out.append(
            tuple(_eval(item.expr, env, aggs) for item in block.select_items)
        )
    return out


def _finite_floats(values: List[Value]) -> bool:
    return any(isinstance(v, float) for v in values) and all(
        math.isfinite(v) for v in values
    )


def _agg_value(agg: ast.Aggregate, members: List[Env]) -> Value:
    if agg.func is ast.AggFunc.COUNT and agg.argument is None:
        return len(members)
    values = [_eval(agg.argument, env) for env in members]
    if agg.distinct:
        # Smallest first: the addition order of the engine's
        # SUM/AVG(DISTINCT), so float results compare bit for bit.
        values = sorted(dict.fromkeys(values))
    if agg.func is ast.AggFunc.COUNT:
        return len(values)
    if not values:
        return 0 if agg.func is not ast.AggFunc.AVG else 0.0
    if agg.func is ast.AggFunc.SUM:
        if not agg.distinct and _finite_floats(values):
            # The engine's float sums are exactly rounded (see
            # ``executor.floatsum``); math.fsum matches bit-for-bit.
            return math.fsum(values)
        return sum(values)
    if agg.func is ast.AggFunc.AVG:
        if not agg.distinct and _finite_floats(values):
            return math.fsum(values) / len(values)
        return sum(values) / len(values)
    if agg.func is ast.AggFunc.MIN:
        return min(values)
    if agg.func is ast.AggFunc.MAX:
        return max(values)
    raise ExecutionError(f"unhandled aggregate {agg.func}")


def _order(block: QueryBlock, rows: List[Tuple[Value, ...]]):
    # The reference executor only orders by output columns.
    keys: List[int] = []
    reverses: List[bool] = []
    names = [o.name for o in block.outputs]
    exprs = [o.expr for o in block.outputs]
    for order in block.order_by:
        idx = None
        for i, expr in enumerate(exprs):
            if str(expr) == str(order.expr):
                idx = i
                break
        if idx is None and isinstance(order.expr, ast.ColumnRef):
            lowered = order.expr.name.lower()
            if lowered in names:
                idx = names.index(lowered)
        if idx is None:
            raise ExecutionError("reference ORDER BY must target an output")
        keys.append(idx)
        reverses.append(order.descending)
    for idx, reverse in zip(reversed(keys), reversed(reverses)):
        rows = sorted(rows, key=lambda r: r[idx], reverse=reverse)
    return rows
