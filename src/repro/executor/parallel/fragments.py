"""Morsel-driven plan fragments over the worker pool.

A *fragment* is a maximal plan subtree the manager can run as sharded
kernels over /dev/shm column exports instead of the sequential operator
path: fused scan→filter→partial-aggregate and shard-local distinct.
Joins and sorts are not fragments; their scans shard through
``scan_rows`` and the in-process operators do the rest. The planner
here decides eligibility (fragment boundaries) from the manager's row
threshold and what the kernels can express; anything it declines falls
through to ``PlanExecutor``'s sequential operators, so fragments are
purely an execution strategy.

Byte-identity contract (checked by ``tests/harness/differential.py``):

* **Aggregates** fuse only where partial merge is exact in any shard
  order: COUNT; MIN/MAX over numeric columns, and over string columns
  by reducing parent-precomputed dictionary rank arrays (codes do not
  follow string order, ranks do); SUM/AVG over INT columns whose total
  magnitude stays inside float64's exact-integer range, and over finite
  FLOAT columns via exact ``(mantissa, exp2)`` shard partials merged in
  fixed shard order (``executor.floatsum`` — exactly rounded, hence
  order-independent). DISTINCT aggregates stay sequential, as do float
  columns containing non-finite values.
* **Aggregate and distinct groups** come from the same ``factorize``
  the sequential operators call, so merged groups are in key order and
  a distinct row's representative is its global first occurrence (shard
  order preserves row order).

Fragments dispatch even with ``workers == 0`` (single inline shard):
identical kernels and results, no overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...optimizer.plans import Aggregate, Distinct, PlanNode, Project, SeqScan
from ...predicates.physical import PhysPredicate, encode_predicates
from ...sql import ast
from ...types import DataType
from ..aggregate import collect_aggregates, finalize_aggregate
from ..executor import ScanObservation
from ..floatsum import ZERO_PAIR, add_pairs, merge_pair_arrays, pairs_to_floats
from ..joinutil import factorize
from ..vector import Batch, ColumnVector

#: Largest |value| * row_count for which float64 partial sums are exact
#: integers regardless of addition order (the int SUM/AVG fusion gate).
_EXACT_INT_SUM = float(1 << 53)


# ----------------------------------------------------------------------
# Scan lowering shared by every fragment kind
# ----------------------------------------------------------------------
@dataclass
class _Scan:
    node: SeqScan
    table: object
    preds: Tuple[PhysPredicate, ...]

    @property
    def alias(self) -> str:
        return self.node.alias

    def column_names(self) -> set:
        return {c.lower() for c in self.table.schema.column_names()}


def _lower_scan(node: PlanNode, database) -> Optional[_Scan]:
    """Lower a leaf to kernel form; None when it is not a plain SeqScan
    with fully encodable predicates (residuals need expression eval)."""
    if not isinstance(node, SeqScan) or node.scan_residuals:
        return None
    table = database.table(node.table_name)
    preds: Tuple[PhysPredicate, ...] = ()
    if node.predicates:
        encoded = encode_predicates(table, node.predicates)
        if encoded is None:
            return None
        preds = encoded
    return _Scan(node, table, preds)


def _observe(scan: _Scan, matched: int, observations: Dict) -> None:
    """Write the same actuals/observation the sequential scan would."""
    scan.node.actual_base_rows = scan.table.row_count
    scan.node.actual_rows = matched
    observations[scan.alias] = ScanObservation(
        alias=scan.alias,
        table_name=scan.table.name,
        base_rows=scan.table.row_count,
        matched_rows=matched,
    )


def _column_of(expr, alias: str, columns: set) -> Optional[str]:
    """The table column a plain qualified ColumnRef resolves to."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    if (expr.qualifier or "").lower() != alias:
        return None
    name = expr.name.lower()
    return name if name in columns else None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def execute_fragment(
    manager, node: PlanNode, database, observations
) -> Optional[Batch]:
    """Run ``node`` as a pool fragment, or None to decline."""
    if isinstance(node, Aggregate):
        return _aggregate_fragment(manager, node, database, observations)
    if isinstance(node, Distinct):
        return _distinct_fragment(manager, node, database, observations)
    return None


# ----------------------------------------------------------------------
# Fused scan → filter → partial aggregate
# ----------------------------------------------------------------------
def _int_sum_exact(table, column: str) -> bool:
    data = table.column_data(column)
    if len(data) == 0:
        return True
    bound = float(np.abs(data.astype(np.float64)).max()) * len(data)
    return bound < _EXACT_INT_SUM


def _float_sum_finite(table, column: str) -> bool:
    """Exact float summation needs finite inputs; a column holding any
    inf/nan keeps SUM/AVG on the sequential bincount path (which matches
    IEEE propagation semantics)."""
    data = table.column_data(column)
    return len(data) == 0 or bool(np.isfinite(data).all())


def _plan_aggregates(node: Aggregate, scan: _Scan):
    """Lower every aggregate to primitive partials, or None.

    Returns ``(prim_specs, plans)`` where ``plans`` maps each distinct
    ast.Aggregate to ``(kind, prim_ref, column)`` and ``prim_specs`` is
    the deduplicated ``(func, column)`` list the shard kernel computes.
    """
    columns = scan.column_names()
    schema = scan.table.schema
    aggs = collect_aggregates(
        [item.expr for item in node.items]
        + ([node.having] if node.having is not None else [])
    )
    prim_specs: List[Tuple[str, str]] = []
    prim_index: Dict[Tuple[str, str], int] = {}

    def prim(func: str, column: str) -> int:
        key = (func, column)
        if key not in prim_index:
            prim_index[key] = len(prim_specs)
            prim_specs.append(key)
        return prim_index[key]

    plans: Dict[ast.Aggregate, Tuple] = {}
    for agg in aggs:
        if agg.distinct:
            return None
        if agg.func is ast.AggFunc.COUNT:
            if agg.argument is not None:
                if _column_of(agg.argument, scan.alias, columns) is None:
                    return None
            plans[agg] = ("count", prim("count", ""), None)
            continue
        column = _column_of(agg.argument, scan.alias, columns)
        if column is None:
            return None
        dtype = schema.column(column).dtype
        if agg.func in (ast.AggFunc.SUM, ast.AggFunc.AVG):
            if dtype is DataType.INT:
                if not _int_sum_exact(scan.table, column):
                    return None
                if agg.func is ast.AggFunc.SUM:
                    plans[agg] = ("sum_int", prim("sum", column), column)
                else:
                    plans[agg] = (
                        "avg_int",
                        (prim("sum", column), prim("count", "")),
                        column,
                    )
            elif dtype is DataType.FLOAT:
                # Exact (mantissa, exp2) shard partials make float sums
                # shard-order independent; a non-finite value anywhere in
                # the column defers to the sequential path instead.
                if not _float_sum_finite(scan.table, column):
                    return None
                if agg.func is ast.AggFunc.SUM:
                    plans[agg] = ("sum_float", prim("fsum", column), column)
                else:
                    plans[agg] = (
                        "avg_float",
                        (prim("fsum", column), prim("count", "")),
                        column,
                    )
            else:
                return None  # SUM over strings: sequential path owns the error
        elif agg.func in (ast.AggFunc.MIN, ast.AggFunc.MAX):
            if dtype is DataType.STRING:
                # Codes do not follow string order; reduce over the
                # dictionary's lexicographic rank array instead.
                func = "min_rank" if agg.func is ast.AggFunc.MIN else "max_rank"
                kind = "min_str" if agg.func is ast.AggFunc.MIN else "max_str"
                plans[agg] = (kind, prim(func, column), column)
            else:
                func = "min" if agg.func is ast.AggFunc.MIN else "max"
                plans[agg] = (func, prim(func, column), column)
        else:
            return None
    return tuple(prim_specs), plans


def merge_group_partials(
    parts, n_keys: int, specs: Tuple[Tuple[str, str], ...]
):
    """Re-group ``group_aggregate_shard`` partials across shards.

    Returns ``(key_arrays, partial_arrays, n_groups, matched_rows)``.
    Merged group order is ascending by key values — the same order
    ``aggregate.group_ids`` produces over the whole batch, since both
    call ``factorize``.
    """
    matched = int(sum(p[2] for p in parts))

    def shard_groups(part) -> int:
        if n_keys:
            return len(part[0][0]) if part[0] else 0
        return len(part[1][0]) if part[1] else 0

    if not any(shard_groups(p) for p in parts):
        head = parts[0]
        empty_keys = tuple(head[0][j][:0] for j in range(n_keys))
        empty_prims = tuple(head[1][i][:0] for i in range(len(specs)))
        return empty_keys, empty_prims, 0, matched

    if n_keys == 0:
        live = [p for p in parts if shard_groups(p)]
        merged = []
        for i, (func, _) in enumerate(specs):
            values = [p[1][i][0] for p in live]
            if func in ("count", "sum"):
                merged.append(np.array([float(sum(values))]))
            elif func == "fsum":
                pair = ZERO_PAIR
                for value in values:  # fixed shard order (exact anyway)
                    pair = add_pairs(pair, value)
                cell = np.empty(1, dtype=object)
                cell[0] = pair
                merged.append(cell)
            elif func.startswith("min"):
                merged.append(np.array([min(values)]))
            else:
                merged.append(np.array([max(values)]))
        return (), tuple(merged), 1, matched

    cat_keys = [
        np.concatenate([p[0][j] for p in parts]) for j in range(n_keys)
    ]
    cat_prims = [
        np.concatenate([p[1][i] for p in parts]) for i in range(len(specs))
    ]
    gids, first_idx = factorize(cat_keys)
    n_groups = len(first_idx)
    merged_keys = tuple(k[first_idx] for k in cat_keys)
    merged_prims = []
    for i, (func, _) in enumerate(specs):
        data = cat_prims[i]
        if func in ("count", "sum"):
            merged_prims.append(
                np.bincount(gids, weights=data, minlength=n_groups)
            )
        elif func == "fsum":
            merged_prims.append(merge_pair_arrays(data, gids, n_groups))
        else:
            order = np.argsort(gids, kind="stable")
            starts = np.searchsorted(gids[order], np.arange(n_groups))
            reducer = np.minimum if func.startswith("min") else np.maximum
            merged_prims.append(reducer.reduceat(data[order], starts))
    return merged_keys, tuple(merged_prims), n_groups, matched


def _rank_array(dictionary) -> np.ndarray:
    """Lexicographic rank per code (``ColumnVector.sort_ranks`` shape)."""
    perm = dictionary.sort_permutation()
    ranks = np.empty(len(perm), dtype=np.int64)
    ranks[perm] = np.arange(len(perm))
    return ranks


def _aggregate_fragment(
    manager, node: Aggregate, database, observations
) -> Optional[Batch]:
    scan = _lower_scan(node.child, database)
    if scan is None or scan.table.row_count < manager.threshold_rows:
        return None
    columns = scan.column_names()
    key_columns: List[str] = []
    for key in node.group_keys:
        column = _column_of(key, scan.alias, columns)
        if column is None:
            return None
        key_columns.append(column)
    lowered = _plan_aggregates(node, scan)
    if lowered is None:
        return None
    prim_specs, plans = lowered

    # Workers never see dictionaries, so string MIN/MAX ships the
    # lexicographic rank per code along with the task.
    rank_arrays = {
        column: _rank_array(scan.table.column(column).dictionary)
        for func, column in prim_specs
        if func in ("min_rank", "max_rank")
    }
    parts = manager.run_ranged(
        scan.table,
        "group_aggregate",
        dict(
            preds=scan.preds,
            keys=tuple(key_columns),
            specs=prim_specs,
            ranks=rank_arrays or None,
        ),
        "aggregate fragment",
    )
    merged_keys, prims, n_groups, matched = merge_group_partials(
        parts, len(key_columns), prim_specs
    )

    computed: Dict[ast.Aggregate, ColumnVector] = {}
    if not key_columns and n_groups == 0:
        # Global aggregate over zero matching rows: one group with the
        # sequential empty-input semantics (no NULLs in this engine).
        n_groups = 1
        for agg, (kind, _, column) in plans.items():
            if kind == "count" or kind == "sum_int":
                computed[agg] = ColumnVector(
                    np.zeros(1, dtype=np.int64), DataType.INT
                )
            elif kind in ("avg_int", "sum_float", "avg_float"):
                computed[agg] = ColumnVector(
                    np.zeros(1, dtype=np.float64), DataType.FLOAT
                )
            else:
                col = scan.table.column(column)
                computed[agg] = ColumnVector(
                    np.zeros(1, dtype=col.data.dtype), col.dtype, col.dictionary
                )
    else:
        for agg, (kind, ref, column) in plans.items():
            if kind == "count":
                computed[agg] = ColumnVector(
                    prims[ref].astype(np.int64), DataType.INT
                )
            elif kind == "sum_int":
                computed[agg] = ColumnVector(
                    np.round(prims[ref]).astype(np.int64), DataType.INT
                )
            elif kind == "avg_int":
                sums, counts = prims[ref[0]], prims[ref[1]]
                averages = np.divide(
                    sums, counts, out=np.zeros(len(sums)), where=counts > 0
                )
                computed[agg] = ColumnVector(averages, DataType.FLOAT)
            elif kind == "sum_float":
                computed[agg] = ColumnVector(
                    pairs_to_floats(prims[ref]), DataType.FLOAT
                )
            elif kind == "avg_float":
                sums = pairs_to_floats(prims[ref[0]])
                counts = prims[ref[1]]
                averages = np.divide(
                    sums, counts, out=np.zeros(len(sums)), where=counts > 0
                )
                computed[agg] = ColumnVector(averages, DataType.FLOAT)
            elif kind in ("min_str", "max_str"):
                # Merged partials are lexicographic ranks; invert the
                # rank permutation to recover dictionary codes.
                col = scan.table.column(column)
                perm = col.dictionary.sort_permutation()
                codes = np.asarray(perm)[prims[ref].astype(np.int64)]
                computed[agg] = ColumnVector(
                    codes.astype(col.data.dtype), col.dtype, col.dictionary
                )
            else:
                col = scan.table.column(column)
                computed[agg] = ColumnVector(
                    prims[ref], col.dtype, col.dictionary
                )

    group_columns: Dict[Tuple[str, str], ColumnVector] = {}
    for key_ref, column, values in zip(
        node.group_keys, key_columns, merged_keys
    ):
        col = scan.table.column(column)
        group_columns[
            ((key_ref.qualifier or "").lower(), key_ref.name.lower())
        ] = ColumnVector(values, col.dtype, col.dictionary)
    group_batch = Batch(group_columns, n_groups)

    batch = finalize_aggregate(
        group_batch, computed, node.items, node.output_names, node.having
    )
    _observe(scan, matched, observations)
    manager.note_fragment("aggregate")
    return batch


# ----------------------------------------------------------------------
# Shard-local distinct with parent merge
# ----------------------------------------------------------------------
def _project_columns(project: Project, scan: _Scan) -> Optional[Dict[str, str]]:
    """Output-name → table-column map when every item is a plain column.

    Built with dict semantics (first position, last value per name) to
    mirror how the sequential Project materializes its batch."""
    columns = scan.column_names()
    out: Dict[str, str] = {}
    for item, name in zip(project.items, project.output_names):
        column = _column_of(item.expr, scan.alias, columns)
        if column is None:
            return None
        out[name.lower()] = column
    return out or None


def _project_batch(table, out_columns: Dict[str, str], rows) -> Batch:
    out: Dict[Tuple[str, str], ColumnVector] = {}
    for name, column_name in out_columns.items():
        column = table.column(column_name)
        out[("", name)] = ColumnVector(
            column.data[rows], column.dtype, column.dictionary
        )
    return Batch(out, len(rows))


def _distinct_fragment(
    manager, node: Distinct, database, observations
) -> Optional[Batch]:
    project = node.child
    if not isinstance(project, Project):
        return None
    scan = _lower_scan(project.child, database)
    if scan is None or scan.table.row_count < manager.threshold_rows:
        return None
    out_columns = _project_columns(project, scan)
    if out_columns is None:
        return None
    kernel_columns = tuple(out_columns.values())

    runs = manager.run_ranged(
        scan.table,
        "distinct",
        dict(preds=scan.preds, columns=kernel_columns),
        "distinct fragment",
    )
    matched = int(sum(run[2] for run in runs))
    rows = np.concatenate([run[0] for run in runs])
    if len(runs) > 1 and len(rows):
        values = [
            np.concatenate([run[1][j] for run in runs])
            for j in range(len(kernel_columns))
        ]
        _, first_idx = factorize(values)
        # Shard-local firsts are globally ordered, so the earliest
        # surviving position is the true global first occurrence.
        rows = rows[np.sort(first_idx)]
    batch = _project_batch(scan.table, out_columns, rows)
    project.actual_rows = matched
    _observe(scan, matched, observations)
    manager.note_fragment("distinct")
    return batch
