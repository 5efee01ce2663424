"""Vectorized evaluation of scalar and boolean expressions over batches.

Handles the residual predicates the classifier could not turn into local or
join predicates, projection expressions, UPDATE assignments and HAVING.
String comparisons across different dictionaries are translated first.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from ..errors import ExecutionError, InvalidValueError
from ..sql import ast
from ..types import DataType
from .vector import Batch, ColumnVector, translate_codes

AggResolver = Callable[[ast.Aggregate], ColumnVector]


def eval_expr(
    expr: ast.Expr,
    batch: Batch,
    agg_resolver: Optional[AggResolver] = None,
) -> ColumnVector:
    """Evaluate a scalar expression to a vector of ``len(batch)``."""
    if isinstance(expr, ast.Literal):
        return _literal_vector(expr, len(batch))
    if isinstance(expr, ast.ColumnRef):
        if expr.qualifier is None:
            return batch.column("", expr.name)
        return batch.column(expr.qualifier, expr.name)
    if isinstance(expr, ast.UnaryArith):
        operand = eval_expr(expr.operand, batch, agg_resolver)
        _require_numeric(operand, "unary minus")
        return ColumnVector(-operand.values, operand.dtype)
    if isinstance(expr, ast.BinaryArith):
        left = eval_expr(expr.left, batch, agg_resolver)
        right = eval_expr(expr.right, batch, agg_resolver)
        return _arith(expr.op, left, right)
    if isinstance(expr, ast.Aggregate):
        if agg_resolver is None:
            raise ExecutionError(f"aggregate {expr} outside an aggregation")
        return agg_resolver(expr)
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


def _literal_vector(literal: ast.Literal, length: int) -> ColumnVector:
    value = literal.value
    if isinstance(value, str):
        # A one-value private dictionary; comparisons translate as needed.
        from ..storage import StringDictionary

        dictionary = StringDictionary([value])
        return ColumnVector(
            np.zeros(length, dtype=np.int64), DataType.STRING, dictionary
        )
    if isinstance(value, float):
        return ColumnVector(np.full(length, value, dtype=np.float64), DataType.FLOAT)
    try:
        return ColumnVector(np.full(length, value, dtype=np.int64), DataType.INT)
    except OverflowError:
        raise InvalidValueError(f"INT literal {value} does not fit in 64 bits") from None


def _require_numeric(vector: ColumnVector, what: str) -> None:
    if vector.dtype is DataType.STRING:
        raise ExecutionError(f"{what} needs numeric operands")


def _arith(op: str, left: ColumnVector, right: ColumnVector) -> ColumnVector:
    _require_numeric(left, f"'{op}'")
    _require_numeric(right, f"'{op}'")
    lv, rv = left.values, right.values
    if op == "+":
        out = lv + rv
    elif op == "-":
        out = lv - rv
    elif op == "*":
        out = lv * rv
    elif op == "/":
        out = lv / np.where(rv == 0, np.nan, rv).astype(np.float64)
        return ColumnVector(out, DataType.FLOAT)
    else:
        raise ExecutionError(f"unknown arithmetic operator {op!r}")
    if left.dtype is DataType.FLOAT or right.dtype is DataType.FLOAT:
        return ColumnVector(out.astype(np.float64), DataType.FLOAT)
    return ColumnVector(out, DataType.INT)


def _comparable_pair(left: ColumnVector, right: ColumnVector):
    """Align two vectors for comparison; returns (lv, rv, ordered)."""
    if (left.dtype is DataType.STRING) != (right.dtype is DataType.STRING):
        raise ExecutionError("cannot compare string with numeric value")
    if left.dtype is DataType.STRING:
        rv = translate_codes(right.dictionary, left.dictionary, right.values)
        return left.values, rv, False
    return left.values, right.values, True


def eval_bool(
    expr: ast.BoolExpr,
    batch: Batch,
    agg_resolver: Optional[AggResolver] = None,
) -> np.ndarray:
    """Evaluate a boolean expression to a mask of ``len(batch)``."""
    if isinstance(expr, ast.Comparison):
        left = eval_expr(expr.left, batch, agg_resolver)
        right = eval_expr(expr.right, batch, agg_resolver)
        lv, rv, ordered = _comparable_pair(left, right)
        op = expr.op
        if op is ast.CompareOp.EQ:
            mask = lv == rv
            if not ordered:
                mask &= rv >= 0  # untranslatable strings match nothing
            return mask
        if op is ast.CompareOp.NE:
            mask = lv != rv
            return mask
        if not ordered:
            raise ExecutionError("ordered comparison on string values")
        if op is ast.CompareOp.LT:
            return lv < rv
        if op is ast.CompareOp.LE:
            return lv <= rv
        if op is ast.CompareOp.GT:
            return lv > rv
        if op is ast.CompareOp.GE:
            return lv >= rv
    if isinstance(expr, ast.BetweenExpr):
        operand = eval_expr(expr.operand, batch, agg_resolver)
        low = eval_expr(expr.low, batch, agg_resolver)
        high = eval_expr(expr.high, batch, agg_resolver)
        _require_numeric(operand, "BETWEEN")
        mask = (operand.values >= low.values) & (operand.values <= high.values)
        return ~mask if expr.negated else mask
    if isinstance(expr, ast.InListExpr):
        operand = eval_expr(expr.operand, batch, agg_resolver)
        mask = np.zeros(len(batch), dtype=bool)
        for item in expr.items:
            rhs = _literal_vector(item, len(batch))
            lv, rv, ordered = _comparable_pair(operand, rhs)
            part = lv == rv
            if not ordered:
                part &= rv >= 0
            mask |= part
        return ~mask if expr.negated else mask
    if isinstance(expr, ast.AndExpr):
        mask = np.ones(len(batch), dtype=bool)
        for operand in expr.operands:
            mask &= eval_bool(operand, batch, agg_resolver)
        return mask
    if isinstance(expr, ast.OrExpr):
        mask = np.zeros(len(batch), dtype=bool)
        for operand in expr.operands:
            mask |= eval_bool(operand, batch, agg_resolver)
        return mask
    if isinstance(expr, ast.NotExpr):
        return ~eval_bool(expr.operand, batch, agg_resolver)
    raise ExecutionError(f"cannot evaluate boolean expression {expr!r}")
