"""Grouped aggregation: the one place aggregate math lives.

Every aggregate function reduces through three primitives:

* :func:`partial` reduces ``(values, gids, n_groups)`` to one slot per
  group;
* :func:`merge` folds concatenated partials by re-grouped id, with the
  same result in any shard order and any merge tree;
* :func:`finish` turns (merged) partials into the result vector.

The in-process ``Aggregate`` operator (:func:`compute_aggregate`) is the
partial over one shard, finished without a merge; the pool's
fused-aggregate fragment runs the partial in each shard kernel and
merges and finishes in the parent. One rule per function, on every path:

* COUNT and INT SUM accumulate in int64, which is exact; a total past
  the int64 range raises ``ExecutionError`` instead of wrapping.
* Float SUM/AVG are exactly rounded for every group whose values are all
  finite (``floatsum`` pairs). A group holding inf or NaN keeps its
  row-order float sum; only the in-process path sees such groups, since
  the fragment declines columns holding non-finite values.
* MIN/MAX reduce int64 *order keys* under one total order: -0.0 < +0.0,
  and every NaN ranks above +inf as one value. Strings reduce over
  dictionary ranks, which follow string order where codes do not.

A group with no rows (a global aggregate over nothing) finishes as zero:
this engine has no NULLs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..sql import ast
from ..types import DataType
from .expr import eval_bool, eval_expr
from .floatsum import group_sum_pairs, merge_pair_arrays, pairs_to_floats
from .joinutil import factorize
from .vector import Batch, ColumnVector

_INT64 = np.iinfo(np.int64)
#: Clears the sign bit; XOR-ed into negative floats' bits to order them.
_MAGNITUDE = np.int64(_INT64.max)
#: Order key of the canonical positive quiet NaN: above +inf's key.
_NAN_KEY = np.float64(np.nan).view(np.int64)
#: 2**63: no int64 total can wrap while rows * max |value| stays below.
_INT64_SPAN = 1 << 63
#: Largest integer every float64 holds exactly (larger INT sums divide
#: in Python so AVG is rounded once).
_EXACT_INT = 1 << 53


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


def group_rows(
    columns: Sequence[np.ndarray], n_rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(gids, first_idx)`` of rows keyed by ``columns``, groups in key
    order; no key columns make one group, even over zero rows."""
    if not columns:
        return np.zeros(n_rows, dtype=np.int64), np.zeros(1, dtype=np.int64)
    return factorize(columns)


def group_ids(batch: Batch, keys: Tuple[ast.ColumnRef, ...]):
    """(gids, n_groups, representative row index per group)."""
    gids, first_idx = group_rows(
        [eval_expr(key, batch).values for key in keys], len(batch)
    )
    return gids, len(first_idx), first_idx


# ----------------------------------------------------------------------
# The primitives
# ----------------------------------------------------------------------
def partial_kind(func: ast.AggFunc, dtype: Optional[DataType]) -> str:
    """The partial ``func`` reduces through, given its argument's type."""
    if func is ast.AggFunc.COUNT:
        return "count"
    if func in (ast.AggFunc.MIN, ast.AggFunc.MAX):
        return func.value
    if dtype is DataType.STRING:
        raise ExecutionError(f"{func.value.upper()} over string values")
    return "isum" if dtype is DataType.INT else "fsum"


def _int64(values: np.ndarray) -> np.ndarray:
    """``values`` as int64 with numpy's own dtype instance. Unpickled
    arrays (cached databases, worker partials) carry an equal but
    distinct one, which sends ``ufunc.at`` down a generic loop ~30x
    slower; ``asarray`` swaps the dtype without copying."""
    return np.asarray(values, dtype=np.int64)


def _int_sum(values: np.ndarray, gids: np.ndarray, n_groups: int) -> np.ndarray:
    values = _int64(values)
    out = np.zeros(n_groups, dtype=np.int64)
    np.add.at(out, gids, values)
    if len(values) and (
        max(-int(values.min()), int(values.max())) * len(values) >= _INT64_SPAN
    ):
        # A total may have wrapped, which moves it by a multiple of
        # 2**64; a float64 sum is off by far less than that.
        approx = np.bincount(
            gids, weights=values.astype(np.float64), minlength=n_groups
        )
        if (np.abs(approx - out) > _INT64_SPAN).any():
            raise ExecutionError("SUM exceeds the INT range")
    return out


def _float_sum(values: np.ndarray, gids: np.ndarray, n_groups: int) -> np.ndarray:
    """Exact pair per group; a group holding inf/NaN keeps its row-order
    float sum in its slot instead (IEEE propagation)."""
    values = values.astype(np.float64, copy=False)
    finite = np.isfinite(values)
    if finite.all():
        return group_sum_pairs(values, gids, n_groups)
    sums = group_sum_pairs(values[finite], gids[finite], n_groups)
    spoiled = np.bincount(gids[~finite], minlength=n_groups) > 0
    row_order = np.bincount(gids, weights=values, minlength=n_groups)
    sums[spoiled] = row_order[spoiled].tolist()
    return sums


def _order_keys(values: np.ndarray) -> np.ndarray:
    """Keys in the MIN/MAX total order: floats map to int64 keys,
    integers (values, dictionary ranks) are their own keys."""
    if values.dtype.kind != "f":
        return values
    bits = values.view(np.int64)
    keys = bits ^ ((bits >> 63) & _MAGNITUDE)
    keys[np.isnan(values)] = _NAN_KEY
    return keys


def _lowest(keys: np.ndarray, gids: np.ndarray, n_groups: int) -> np.ndarray:
    out = np.full(n_groups, _INT64.max, dtype=np.int64)
    np.minimum.at(out, gids, _int64(keys))
    return out


def _highest(keys: np.ndarray, gids: np.ndarray, n_groups: int) -> np.ndarray:
    out = np.full(n_groups, _INT64.min, dtype=np.int64)
    np.maximum.at(out, gids, _int64(keys))
    return out


#: kind -> (partial over argument values, merge over partials).
_REDUCERS = {
    "count": (lambda v, g, n: np.bincount(g, minlength=n), _int_sum),
    "isum": (_int_sum, _int_sum),
    "fsum": (_float_sum, merge_pair_arrays),
    "min": (lambda v, g, n: _lowest(_order_keys(v), g, n), _lowest),
    "max": (lambda v, g, n: _highest(_order_keys(v), g, n), _highest),
}


def partial(
    kind: str, values: Optional[np.ndarray], gids: np.ndarray, n_groups: int
) -> np.ndarray:
    """One partial slot per group: int64 counts, sums and order keys, or
    exact ``floatsum`` pairs (object dtype) for float sums. ``values``
    are the argument's physical values, dictionary ranks for strings,
    None for COUNT."""
    return _REDUCERS[kind][0](values, gids, n_groups)


def merge(
    kind: str, partials: np.ndarray, gids: np.ndarray, n_groups: int
) -> np.ndarray:
    """Fold concatenated partials by merged group id; the result is a
    valid partial again."""
    return _REDUCERS[kind][1](partials, gids, n_groups)


def finish(
    func: ast.AggFunc, merged: np.ndarray, counts: np.ndarray, like=None
) -> ColumnVector:
    """The aggregate's vector from its partial and the group sizes.

    ``like`` carries the argument's ``dtype`` and ``dictionary`` (a
    ColumnVector or a table column; None for COUNT).
    """
    if func is ast.AggFunc.COUNT:
        return ColumnVector(merged, DataType.INT)
    if func in (ast.AggFunc.MIN, ast.AggFunc.MAX):
        live = counts > 0
        keys = merged[live]
        if like.dtype is DataType.FLOAT:
            keys = (keys ^ ((keys >> 63) & _MAGNITUDE)).view(np.float64)
        elif like.dictionary is not None:
            keys = like.dictionary.sort_permutation()[keys]
        out = np.zeros(len(merged), dtype=keys.dtype)
        out[live] = keys
        return ColumnVector(out, like.dtype, like.dictionary)
    sums = pairs_to_floats(merged) if like.dtype is DataType.FLOAT else merged
    if func is ast.AggFunc.SUM:
        return ColumnVector(sums, like.dtype)
    means = np.divide(sums, counts, out=np.zeros(len(sums)), where=counts > 0)
    if sums.dtype == np.int64:
        for g in np.flatnonzero(np.abs(sums) > _EXACT_INT):
            means[g] = int(sums[g]) / int(counts[g])
    return ColumnVector(means, DataType.FLOAT)


def compute_aggregate(
    agg: ast.Aggregate, batch: Batch, gids: np.ndarray, n_groups: int
) -> ColumnVector:
    """Per-group value of one aggregate function over one shard."""
    argument = None if agg.argument is None else eval_expr(agg.argument, batch)
    kind = partial_kind(agg.func, None if argument is None else argument.dtype)
    values = None if argument is None else argument.sort_ranks()
    if agg.distinct:
        # One row per distinct (group, value) pair, in that ascending
        # order (a group's first occurrence of each value).
        _, first = factorize([gids, values])
        gids, values = gids[first], values[first]
    counts = partial("count", None, gids, n_groups)
    return finish(agg.func, partial(kind, values, gids, n_groups), counts, argument)


def aggregate_batch(
    batch: Batch,
    group_keys: Tuple[ast.ColumnRef, ...],
    items,
    output_names: Tuple[str, ...],
    having: Optional[ast.BoolExpr],
) -> Batch:
    """Full GROUP BY / HAVING / projection pipeline for one block."""
    gids, n_groups, representatives = group_ids(batch, group_keys)
    needed = collect_aggregates(
        [item.expr for item in items] + ([having] if having is not None else [])
    )
    computed = {
        agg: compute_aggregate(agg, batch, gids, n_groups) for agg in needed
    }
    keys = [eval_expr(key, batch).take(representatives) for key in group_keys]
    return finalize_aggregate(
        group_keys, keys, n_groups, computed, items, output_names, having
    )


def finalize_aggregate(
    group_keys: Tuple[ast.ColumnRef, ...],
    keys: Sequence[ColumnVector],
    n_groups: int,
    computed: Dict[ast.Aggregate, ColumnVector],
    items,
    output_names: Tuple[str, ...],
    having: Optional[ast.BoolExpr],
) -> Batch:
    """HAVING + projection over per-group key and aggregate vectors.

    Shared tail of the in-process :func:`aggregate_batch` pipeline and
    the parallel fused-aggregate fragment: both produce ``keys`` (each
    group key's value per group) plus ``computed`` (one vector per
    distinct aggregate) and hand off here. The key columns let
    non-aggregate references in the select list resolve per group.
    """
    group_batch = Batch(
        {
            ((ref.qualifier or "").lower(), ref.name.lower()): vector
            for ref, vector in zip(group_keys, keys)
        },
        n_groups,
    )

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
