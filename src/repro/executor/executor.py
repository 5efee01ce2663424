"""Plan execution.

A :class:`PlanExecutor` walks a physical plan bottom-up, producing
:class:`~repro.executor.vector.Batch` objects. Every node's *actual* output
cardinality is written back onto the plan (``node.actual_rows``) — those
numbers feed the LEO-style feedback module.

Cost realism notes:

* the index nested-loop join probes the hash index **once per outer row**
  (a Python-level loop), which is the in-memory analogue of per-probe
  random I/O — exactly the cost a misestimated outer cardinality blows up;
* the fallback nested-loop join materializes the cross product in bounded
  chunks, so catastrophic plans are slow but never exhaust memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..cancel import check_cancelled
from ..errors import ExecutionError
from ..optimizer.optimizer import OptimizedQuery
from ..optimizer.plans import (
    Aggregate,
    DerivedScan,
    Distinct,
    Filter,
    HashJoin,
    IndexNLJoin,
    IndexScan,
    Limit,
    NestedLoopJoin,
    PlanNode,
    Project,
    SeqScan,
    Sort,
)
from ..predicates import LocalPredicate, PredOp, group_mask
from ..predicates.physical import PhysPredicate, physical_mask
from ..sql import ast
from ..sql.qgm import QueryBlock
from ..storage import Database
from ..types import DataType, Value
from .aggregate import aggregate_batch
from .expr import eval_bool, eval_expr
from .joinutil import equi_join_indices, factorize
from .vector import Batch, ColumnVector, batch_from_table, translate_codes

_NLJ_CHUNK_CELLS = 1 << 22  # bound cross-product memory, not time


@dataclass
class ScanObservation:
    """Actual behaviour of one base-table access (feedback input)."""

    alias: str
    table_name: str
    base_rows: int
    matched_rows: int

    @classmethod
    def of(cls, alias: str, table, matched_rows: int) -> "ScanObservation":
        return cls(alias, table.name, table.row_count, matched_rows)


@dataclass
class ExecutionResult:
    batch: Batch
    output_names: List[str]
    output_dtypes: List[DataType]
    scan_observations: Dict[str, ScanObservation] = field(default_factory=dict)

    @property
    def row_count(self) -> int:
        return len(self.batch)

    def rows(self) -> List[Tuple[Value, ...]]:
        """Decode the result batch into Python tuples (the fetch step)."""
        decoded = [
            self.batch.column("", name).decode() for name in self.output_names
        ]
        if not decoded:
            return []
        return list(zip(*decoded))


class PlanExecutor:
    """Executes one optimized query (including derived-table children)."""

    def __init__(self, database: Database, parallel=None):
        self.database = database
        # Optional ParallelScanManager: when set, predicate SeqScans that
        # clear its row threshold shard across worker processes.
        self.parallel = parallel
        self._observations: Dict[str, ScanObservation] = {}

    def execute(self, optimized: OptimizedQuery) -> ExecutionResult:
        block = optimized.block
        self._required = _required_columns(block)
        batch = self._exec(optimized.root, block)
        names = block.output_names()
        dtypes = [o.dtype for o in block.outputs]
        return ExecutionResult(
            batch=batch,
            output_names=names,
            output_dtypes=dtypes,
            scan_observations=dict(self._observations),
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _exec(self, node: PlanNode, block: QueryBlock) -> Batch:
        # Operator boundaries are the executor's checkpoints: a cancelled
        # statement stops before the next operator (or fragment) starts.
        check_cancelled()
        if self.parallel is not None and isinstance(node, (Aggregate, Distinct)):
            # Whole-fragment offload: fused aggregate / shard-local
            # distinct over the worker pool. None means the fragment
            # planner declined; fall through to the operators.
            batch = self.parallel.fragment_batch(
                node, self.database, self._observations
            )
            if batch is not None:
                node.actual_rows = len(batch)
                return batch
        if isinstance(node, SeqScan):
            batch = self._exec_seq_scan(node, block)
        elif isinstance(node, IndexScan):
            batch = self._exec_index_scan(node, block)
        elif isinstance(node, DerivedScan):
            batch = self._exec_derived(node, block)
        elif isinstance(node, HashJoin):
            batch = self._exec_hash_join(node, block)
        elif isinstance(node, IndexNLJoin):
            batch = self._exec_index_nl_join(node, block)
        elif isinstance(node, NestedLoopJoin):
            batch = self._exec_nested_loop(node, block)
        elif isinstance(node, Filter):
            child = self._exec(node.child, block)
            mask = np.ones(len(child), dtype=bool)
            for residual in node.residuals:
                mask &= eval_bool(residual, child)
            batch = child.mask(mask)
        elif isinstance(node, Aggregate):
            child = self._exec(node.child, block)
            batch = aggregate_batch(
                child, node.group_keys, node.items, node.output_names, node.having
            )
        elif isinstance(node, Project):
            batch = project_batch(node, self._exec(node.child, block))
        elif isinstance(node, Distinct):
            batch = self._exec_distinct(node, block)
        elif isinstance(node, Sort):
            batch = self._exec_sort(node, block)
        elif isinstance(node, Limit):
            child = self._exec(node.child, block)
            if len(child) > node.count:
                batch = child.take(np.arange(node.count, dtype=np.int64))
            else:
                batch = child
        else:
            raise ExecutionError(f"unknown plan node {type(node).__name__}")
        node.actual_rows = len(batch)
        return batch

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def _scan_output(self, node, table, rows: np.ndarray) -> Batch:
        needed = sorted(self._required.get(node.alias, set()))
        self._observations[node.alias] = ScanObservation.of(
            node.alias, table, len(rows)
        )
        return batch_from_table(table, node.alias, rows, needed)

    def _exec_seq_scan(self, node: SeqScan, block: QueryBlock) -> Batch:
        table = self.database.table(node.table_name)
        node.actual_base_rows = table.row_count
        rows = matching_rows(
            table, node.alias, node.predicates, node.scan_residuals, self.parallel
        )
        return self._scan_output(node, table, rows)

    def _exec_index_scan(self, node: IndexScan, block: QueryBlock) -> Batch:
        table = self.database.table(node.table_name)
        indexes = self.database.indexes(node.table_name)
        predicate = node.index_predicate
        if node.index_kind == "hash":
            index = indexes.hash_on(node.index_column)
            if index is None:
                raise ExecutionError(f"missing hash index for {node.label()}")
            phys = table.column(node.index_column).lookup_value(predicate.value)
            rows = (
                np.empty(0, dtype=np.int64)
                if phys is None
                else index.lookup(phys)
            )
        else:
            index = indexes.sorted_on(node.index_column)
            if index is None:
                raise ExecutionError(f"missing sorted index for {node.label()}")
            rows = self._sorted_index_rows(table, index, predicate)
        node.actual_base_rows = len(rows)
        rows = matching_rows(
            table, node.alias, node.remaining, node.scan_residuals, rows=rows
        )
        return self._scan_output(node, table, rows)

    @staticmethod
    def _sorted_index_rows(table, index, predicate: LocalPredicate) -> np.ndarray:
        def phys(value) -> float:
            encoded = table.column(predicate.column).lookup_value(value)
            if encoded is None:
                raise ExecutionError(
                    f"range predicate value {value!r} not comparable"
                )
            return float(encoded)

        op = predicate.op
        if op is PredOp.BETWEEN:
            return index.range_lookup(phys(predicate.values[0]), phys(predicate.values[1]))
        value = phys(predicate.value)
        if op is PredOp.LT:
            return index.range_lookup(None, value, high_inclusive=False)
        if op is PredOp.LE:
            return index.range_lookup(None, value, high_inclusive=True)
        if op is PredOp.GT:
            return index.range_lookup(value, None, low_inclusive=False)
        if op is PredOp.GE:
            return index.range_lookup(value, None, low_inclusive=True)
        raise ExecutionError(f"sorted index cannot serve {op}")

    def _exec_derived(self, node: DerivedScan, block: QueryBlock) -> Batch:
        child_block: QueryBlock = node.child_block
        child_executor = PlanExecutor(self.database, parallel=self.parallel)
        child_executor._required = _required_columns(child_block)
        child_batch = child_executor._exec(node.child_plan, child_block)
        self._observations.update(child_executor._observations)
        # Re-key child outputs under this quantifier's alias.
        columns = {}
        for name in child_block.output_names():
            columns[(node.alias.lower(), name.lower())] = child_batch.column("", name)
        batch = Batch(columns, len(child_batch))
        for predicate in node.predicates:
            batch = batch.mask(_batch_predicate_mask(predicate, batch))
        for residual in node.scan_residuals:
            batch = batch.mask(eval_bool(residual, batch))
        return batch

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _join_key_vectors(
        self, predicate, left: Batch, right: Batch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Key arrays (left_values, right_values) in a shared code space."""
        if left.has_column(predicate.left_alias, predicate.left_column):
            lkey = left.column(predicate.left_alias, predicate.left_column)
            rkey = right.column(predicate.right_alias, predicate.right_column)
        else:
            lkey = left.column(predicate.right_alias, predicate.right_column)
            rkey = right.column(predicate.left_alias, predicate.left_column)
        lv, rv = lkey.values, rkey.values
        if lkey.dictionary is not None or rkey.dictionary is not None:
            if lkey.dictionary is None or rkey.dictionary is None:
                raise ExecutionError("join between string and numeric column")
            lv = translate_codes(lkey.dictionary, rkey.dictionary, lv)
        return lv, rv

    def _exec_hash_join(self, node: HashJoin, block: QueryBlock) -> Batch:
        build = self._exec(node.build, block)
        probe = self._exec(node.probe, block)
        first, *rest = node.join_predicates
        lv, rv = self._join_key_vectors(first, probe, build)
        l_idx, r_idx = equi_join_indices(lv, rv)
        if rest:
            mask = np.ones(len(l_idx), dtype=bool)
            for predicate in rest:
                plv, prv = self._join_key_vectors(predicate, probe, build)
                mask &= plv[l_idx] == prv[r_idx]
            l_idx, r_idx = l_idx[mask], r_idx[mask]
        return Batch.merge(probe.take(l_idx), build.take(r_idx))

    def _exec_index_nl_join(self, node: IndexNLJoin, block: QueryBlock) -> Batch:
        outer = self._exec(node.outer, block)
        inner_table = self.database.table(node.inner_table)
        index = self.database.indexes(node.inner_table).hash_on(
            node.inner_index_column
        )
        if index is None:
            raise ExecutionError(f"missing index for {node.label()}")
        probe_pred = next(
            p
            for p in node.join_predicates
            if node.inner_alias in p.aliases()
            and p.column_for(node.inner_alias) == node.inner_index_column
        )
        _, outer_alias = probe_pred.side_for(node.inner_alias)
        outer_column = probe_pred.column_for(outer_alias)
        key_vector = outer.column(outer_alias, outer_column)
        keys = key_vector.values
        inner_column = inner_table.column(node.inner_index_column)
        if key_vector.dictionary is not None:
            if inner_column.dictionary is None:
                raise ExecutionError("join between string and numeric column")
            keys = translate_codes(
                key_vector.dictionary, inner_column.dictionary, keys
            )
        node.actual_probes = len(keys)
        # One probe per outer row — deliberately not batched (see module
        # docstring): this is where a bad outer-cardinality estimate hurts.
        matches: List[np.ndarray] = []
        counts = np.empty(len(keys), dtype=np.int64)
        for i, key in enumerate(keys.tolist()):
            if (i & 0x0FFF) == 0:
                check_cancelled()  # probe loop: poll every 4096 probes
            rows = index.lookup(key)
            counts[i] = len(rows)
            if len(rows):
                matches.append(rows)
        inner_rows = (
            np.concatenate(matches) if matches else np.empty(0, dtype=np.int64)
        )
        outer_idx = np.repeat(np.arange(len(keys), dtype=np.int64), counts)

        if node.inner_predicates:
            mask = group_mask(inner_table, node.inner_predicates, inner_rows)
            inner_rows, outer_idx = inner_rows[mask], outer_idx[mask]
        needed = sorted(self._required.get(node.inner_alias, set()))
        inner_batch = batch_from_table(
            inner_table, node.inner_alias, inner_rows, needed
        )
        result = Batch.merge(outer.take(outer_idx), inner_batch)
        for predicate in node.join_predicates:
            if predicate is probe_pred:
                continue
            lv = result.column(
                predicate.left_alias, predicate.left_column
            )
            rv = result.column(predicate.right_alias, predicate.right_column)
            left_values, right_values = lv.values, rv.values
            if lv.dictionary is not None and rv.dictionary is not None:
                left_values = translate_codes(
                    lv.dictionary, rv.dictionary, left_values
                )
            result = result.mask(left_values == right_values)
        for residual in node.inner_scan_residuals:
            result = result.mask(eval_bool(residual, result))
        self._observations.setdefault(
            node.inner_alias,
            ScanObservation(
                alias=node.inner_alias,
                table_name=inner_table.name,
                base_rows=inner_table.row_count,
                matched_rows=-1,  # not independently observable in an INL
            ),
        )
        return result

    def _exec_nested_loop(self, node: NestedLoopJoin, block: QueryBlock) -> Batch:
        outer = self._exec(node.outer, block)
        inner = self._exec(node.inner, block)
        n_out, n_in = len(outer), len(inner)
        if n_out == 0 or n_in == 0:
            return Batch.merge(
                outer.take(np.empty(0, dtype=np.int64)),
                inner.take(np.empty(0, dtype=np.int64)),
            )
        chunk = max(1, _NLJ_CHUNK_CELLS // n_in)
        out_parts: List[np.ndarray] = []
        in_parts: List[np.ndarray] = []
        inner_range = np.arange(n_in, dtype=np.int64)
        key_pairs = [
            self._join_key_vectors(p, outer, inner) for p in node.join_predicates
        ]
        for start in range(0, n_out, chunk):
            check_cancelled()  # one poll per cross-product chunk
            stop = min(start + chunk, n_out)
            o_idx = np.repeat(np.arange(start, stop, dtype=np.int64), n_in)
            i_idx = np.tile(inner_range, stop - start)
            mask = np.ones(len(o_idx), dtype=bool)
            for lv, rv in key_pairs:
                mask &= lv[o_idx] == rv[i_idx]
            out_parts.append(o_idx[mask])
            in_parts.append(i_idx[mask])
        o_all = np.concatenate(out_parts)
        i_all = np.concatenate(in_parts)
        return Batch.merge(outer.take(o_all), inner.take(i_all))

    # ------------------------------------------------------------------
    # Output shaping
    # ------------------------------------------------------------------
    def _exec_distinct(self, node: Distinct, block: QueryBlock) -> Batch:
        child = self._exec(node.child, block)
        if len(child) == 0 or not child.columns:
            return child
        _, first_idx = factorize([v.values for v in child.columns.values()])
        return child.take(np.sort(first_idx))

    def _exec_sort(self, node: Sort, block: QueryBlock) -> Batch:
        child = self._exec(node.child, block)
        if len(child) <= 1:
            return child
        keys = []
        for order in reversed(node.order_by):  # lexsort: last key is primary
            vector = eval_expr(order.expr, child)
            ranks = vector.sort_ranks()
            keys.append(-ranks if order.descending else ranks)
        order_idx = np.lexsort(keys)
        return child.take(order_idx)


def matching_rows(
    table,
    alias: str,
    predicates,
    residuals=(),
    parallel=None,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Positions of the table's rows (or of the candidate ``rows``) that
    satisfy every local predicate and scan residual.

    A full-table predicate scan shards over ``parallel`` when the pool
    takes it, else runs ``group_mask``; residuals are evaluated over a
    batch of the columns they reference. Scans and DML targeting share it.
    """
    if rows is None and predicates and parallel is not None:
        rows = parallel.scan_rows(table, predicates)
        if rows is not None:
            predicates = ()
    if predicates:
        mask = group_mask(table, predicates, rows)
        rows = np.flatnonzero(mask).astype(np.int64) if rows is None else rows[mask]
    elif rows is None:
        rows = np.arange(table.row_count, dtype=np.int64)
    if residuals:
        columns = {
            ref.name.lower() for r in residuals for ref in ast.column_refs(r)
        }
        batch = batch_from_table(table, alias, rows, sorted(columns))
        keep = np.ones(len(rows), dtype=bool)
        for residual in residuals:
            keep &= eval_bool(residual, batch)
        rows = rows[keep]
    return rows


def project_batch(node: Project, child: Batch) -> Batch:
    """A Project's output over its child batch, keyed ``("", name)``."""
    out = {
        ("", name.lower()): eval_expr(item.expr, child)
        for item, name in zip(node.items, node.output_names)
    }
    return Batch(out, len(child))


def _batch_predicate_mask(predicate: LocalPredicate, batch: Batch) -> np.ndarray:
    """Evaluate a local predicate against a batch (derived quantifiers)."""
    vector = batch.column(predicate.alias, predicate.column)
    dictionary = vector.dictionary
    op = predicate.op
    if dictionary is not None and op not in (PredOp.EQ, PredOp.NE, PredOp.IN):
        raise ExecutionError("range predicate on string output column")
    for value in predicate.values:
        if dictionary is not None and not isinstance(value, str):
            raise ExecutionError(f"comparing string column with {value!r}")
        if dictionary is None and isinstance(value, str):
            raise ExecutionError(f"comparing numeric column with {value!r}")
    if dictionary is not None:
        codes = dictionary.find_codes(predicate.values)
        # Values absent from the dictionary match nothing: drop them.
        values = tuple(codes[codes >= 0].astype(np.float64).tolist())
    else:
        values = tuple(float(value) for value in predicate.values)
    return physical_mask(
        vector.values,
        PhysPredicate(predicate.column, op.name, values, empty=not values),
    )


def _required_columns(block: QueryBlock) -> Dict[str, Set[str]]:
    """Columns each quantifier must materialize into scan batches."""
    required: Dict[str, Set[str]] = {alias: set() for alias in block.quantifiers}

    def add_expr(expr) -> None:
        for ref in ast.column_refs(expr):
            if ref.qualifier and ref.qualifier in required:
                required[ref.qualifier].add(ref.name.lower())

    for item in block.select_items:
        add_expr(item.expr)
    for key in block.group_by:
        add_expr(key)
    if block.having is not None:
        add_expr(block.having)
    for order in block.order_by:
        add_expr(order.expr)
    for residual in block.residuals:
        add_expr(residual)
    for residuals in block.scan_residuals.values():
        for residual in residuals:
            add_expr(residual)
    for predicate in block.join_predicates:
        if predicate.left_alias in required:
            required[predicate.left_alias].add(predicate.left_column)
        if predicate.right_alias in required:
            required[predicate.right_alias].add(predicate.right_column)
    return required
