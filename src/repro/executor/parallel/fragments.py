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

* **Aggregates** have no math of their own here: shard kernels run
  ``aggregate.partial``, the parent ``merge`` and ``finish`` — the
  primitives the in-process operator runs over one shard. This module
  only decides whether a plan can fuse: plain column arguments, no
  DISTINCT aggregate, and no float SUM/AVG over a column holding inf or
  NaN (row-order float sums do not merge exactly). INT SUM is exact in
  int64 with no range gate; MIN/MAX use the shared total order.
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

from ...errors import ExecutionError
from ...optimizer.plans import Aggregate, Distinct, PlanNode, Project, SeqScan
from ...predicates.physical import PhysPredicate, encode_predicates
from ...sql import ast
from ..aggregate import (
    collect_aggregates,
    finalize_aggregate,
    finish,
    group_rows,
    merge,
    partial_kind,
)
from ..executor import ScanObservation, project_batch
from ..joinutil import factorize
from ..vector import Batch, ColumnVector, batch_from_table


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
    preds = encode_predicates(table, node.predicates)
    return None if preds is None else _Scan(node, table, preds)


def _observe(scan: _Scan, matched: int, observations: Dict) -> None:
    """Write the same actuals/observation the sequential scan would."""
    scan.node.actual_base_rows = scan.table.row_count
    scan.node.actual_rows = matched
    observations[scan.alias] = ScanObservation.of(scan.alias, scan.table, matched)


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
def _plan_aggregates(node: Aggregate, scan: _Scan):
    """Lower every aggregate to a shard partial, or None to decline.

    Returns ``(specs, plans)``: ``specs`` is the deduplicated
    ``(kind, column)`` list the shard kernel computes, COUNT first
    (``finish`` needs the group sizes); ``plans`` maps each distinct
    ast.Aggregate to its spec index and its argument's table column
    (``finish``'s ``like``; None for COUNT(*)).
    """
    columns = scan.column_names()
    specs: List[Tuple[str, str]] = [("count", "")]
    plans: Dict[ast.Aggregate, Tuple[int, object]] = {}
    for agg in collect_aggregates(
        [item.expr for item in node.items]
        + ([node.having] if node.having is not None else [])
    ):
        column, like = "", None
        if agg.argument is not None:
            column = _column_of(agg.argument, scan.alias, columns)
            if column is None:
                return None
            like = scan.table.column(column)
        try:
            kind = partial_kind(agg.func, None if like is None else like.dtype)
        except ExecutionError:
            return None  # the in-process path raises it
        if agg.distinct or (
            kind == "fsum"
            and not all(np.isfinite(p).all() for p in scan.table.column(column).pieces)
        ):
            # A group holding inf/NaN sums in row order, which shard
            # partials cannot reproduce.
            return None
        spec = ("count", "") if kind == "count" else (kind, column)
        if spec not in specs:
            specs.append(spec)
        plans[agg] = (specs.index(spec), like)
    return tuple(specs), plans


def merge_group_partials(parts, specs: Tuple[Tuple[str, str], ...]):
    """Re-group ``group_aggregate_shard`` partials across shards.

    Returns ``(key_arrays, partial_arrays, n_groups, matched_rows)``,
    itself a valid part for another merge. Merged group order is
    ascending by key values — the order ``aggregate.group_ids`` produces
    over the whole batch, since both call ``group_rows``.
    """
    matched = int(sum(p[2] for p in parts))
    cat_keys = [
        np.concatenate([p[0][j] for p in parts]) for j in range(len(parts[0][0]))
    ]
    cat_partials = [
        np.concatenate([p[1][i] for p in parts]) for i in range(len(specs))
    ]
    gids, first_idx = group_rows(cat_keys, len(cat_partials[0]))
    n_groups = len(first_idx)
    merged = tuple(
        merge(kind, data, gids, n_groups)
        for (kind, _), data in zip(specs, cat_partials)
    )
    return tuple(k[first_idx] for k in cat_keys), merged, n_groups, matched


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
    specs, plans = lowered

    # Workers never see dictionaries, so string MIN/MAX ships each code's
    # lexicographic rank along with the task.
    ranks = {}
    for _, column in specs[1:]:
        col = scan.table.column(column)
        if col.dictionary is not None:
            codes = np.arange(len(col.dictionary), dtype=np.int64)
            ranks[column] = ColumnVector(codes, col.dtype, col.dictionary).sort_ranks()
    parts = manager.run_ranged(
        scan.table,
        "group_aggregate",
        dict(
            preds=scan.preds,
            keys=tuple(key_columns),
            specs=specs,
            ranks=ranks or None,
        ),
        "aggregate fragment",
    )
    merged_keys, merged, n_groups, matched = merge_group_partials(parts, specs)

    computed = {
        agg: finish(agg.func, merged[ref], merged[0], like)
        for agg, (ref, like) in plans.items()
    }
    keys = [
        ColumnVector(values, col.dtype, col.dictionary)
        for values, col in zip(
            merged_keys, (scan.table.column(c) for c in key_columns)
        )
    ]
    batch = finalize_aggregate(
        node.group_keys,
        keys,
        n_groups,
        computed,
        node.items,
        node.output_names,
        node.having,
    )
    _observe(scan, matched, observations)
    manager.note_fragment("aggregate")
    return batch


# ----------------------------------------------------------------------
# Shard-local distinct with parent merge
# ----------------------------------------------------------------------
def _project_columns(project: Project, scan: _Scan) -> Optional[Tuple[str, ...]]:
    """The table column behind each output column of the Project, when
    every item is a plain column.

    Built with dict semantics (first position, last value per name), the
    way ``project_batch`` keys the Project's output."""
    columns = scan.column_names()
    out: Dict[str, str] = {}
    for item, name in zip(project.items, project.output_names):
        column = _column_of(item.expr, scan.alias, columns)
        if column is None:
            return None
        out[name.lower()] = column
    return tuple(out.values()) or None


def _distinct_fragment(
    manager, node: Distinct, database, observations
) -> Optional[Batch]:
    project = node.child
    if not isinstance(project, Project):
        return None
    scan = _lower_scan(project.child, database)
    if scan is None or scan.table.row_count < manager.threshold_rows:
        return None
    kernel_columns = _project_columns(project, scan)
    if kernel_columns is None:
        return None

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
    batch = project_batch(
        project, batch_from_table(scan.table, scan.alias, rows, kernel_columns)
    )
    project.actual_rows = matched
    _observe(scan, matched, observations)
    manager.note_fragment("distinct")
    return batch
