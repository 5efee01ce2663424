"""Local predicates in physical form, and the one op ladder that
evaluates them.

A :class:`PhysPredicate` carries already-encoded operands (dictionary
codes for strings), so it can be evaluated against a bare numpy array —
a stored column, a batch vector, or a shared-memory view inside a worker
process that never sees a string dictionary. Every predicate evaluator in
the engine encodes its operands its own way and then calls
:func:`physical_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..types import DataType
from .predicate import LocalPredicate, PredOp


@dataclass(frozen=True)
class PhysPredicate:
    """A local predicate lowered to physical form.

    ``op`` is the :class:`PredOp` name; ``values`` are the encoded
    physical values (floats). ``empty`` marks an EQ/NE/IN predicate none
    of whose string values is in the dictionary: unsatisfiable for EQ/IN,
    tautological for NE.
    """

    column: str
    op: str
    values: Tuple[float, ...] = ()
    empty: bool = False


def encode_predicate(table, predicate: LocalPredicate) -> Optional[PhysPredicate]:
    """Lower one predicate against a stored table, or None for a range
    comparison on a string column (dictionary codes do not follow string
    order; the caller owns that error)."""
    column = predicate.column.lower()
    col = table.column(column)
    op = predicate.op
    if op in (PredOp.EQ, PredOp.NE):
        phys = col.lookup_value(predicate.value)
        if phys is None:
            return PhysPredicate(column, op.name, empty=True)
        return PhysPredicate(column, op.name, (float(phys),))
    if op is PredOp.IN:
        wanted = []
        for value in predicate.values:
            phys = col.lookup_value(value)
            if phys is not None:
                wanted.append(float(phys))
        if not wanted:
            return PhysPredicate(column, op.name, empty=True)
        return PhysPredicate(column, op.name, tuple(wanted))
    if table.schema.column(column).dtype is DataType.STRING:
        return None
    lo = float(col.lookup_value(predicate.values[0]))
    if op is PredOp.BETWEEN:
        hi = float(col.lookup_value(predicate.values[1]))
        return PhysPredicate(column, op.name, (lo, hi))
    return PhysPredicate(column, op.name, (lo,))


def encode_predicates(
    table, predicates: Sequence[LocalPredicate]
) -> Optional[Tuple[PhysPredicate, ...]]:
    """Lower a predicate list; None if any member cannot be lowered."""
    out = []
    for predicate in predicates:
        phys = encode_predicate(table, predicate)
        if phys is None:
            return None
        out.append(phys)
    return tuple(out)


def physical_mask(data: np.ndarray, pred: PhysPredicate) -> np.ndarray:
    """Boolean mask of the positions of ``data`` satisfying ``pred``."""
    op = pred.op
    if op == "EQ" or op == "NE":
        if pred.empty:
            base = np.zeros(len(data), dtype=bool)
            return ~base if op == "NE" else base
        mask = data == pred.values[0]
        return ~mask if op == "NE" else mask
    if op == "IN":
        if pred.empty:
            return np.zeros(len(data), dtype=bool)
        values = np.asarray(pred.values)
        if data.dtype.kind == "i":
            # A value past int64 matches no row (and has no int64 form).
            values = values[(values >= -(2.0**63)) & (values < 2.0**63)]
        # One vectorized membership pass, not one equality scan per value.
        return np.isin(data, values.astype(data.dtype))
    lo = pred.values[0]
    if op == "BETWEEN":
        return (data >= lo) & (data <= pred.values[1])
    if op == "LT":
        return data < lo
    if op == "LE":
        return data <= lo
    if op == "GT":
        return data > lo
    if op == "GE":
        return data >= lo
    raise AssertionError(f"unhandled physical predicate op {op}")
