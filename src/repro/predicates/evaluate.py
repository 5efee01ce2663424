"""Vectorized evaluation of local predicates against stored tables.

Used by three consumers: the executor's scan filters, the JITS sample
(evaluating candidate predicates on its gathered values), and the
reference executor in the tests.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..errors import ExecutionError
from ..storage import Table
from .physical import encode_predicate, physical_mask
from .predicate import LocalPredicate


def predicate_mask(
    table: Table, predicate: LocalPredicate, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boolean mask of rows satisfying the predicate."""
    return group_mask(table, (predicate,), rows)


def values_mask(
    table: Table, predicate: LocalPredicate, values: np.ndarray
) -> np.ndarray:
    """Boolean mask of ``values``, physical values of the predicate's
    column of ``table``, satisfying the predicate."""
    return physical_mask(values, _encoded(table, predicate))


def _encoded(table: Table, predicate: LocalPredicate):
    phys = encode_predicate(table, predicate)
    if phys is None:
        # Dictionary codes do not follow string order, so range predicates
        # on strings are rejected rather than silently wrong.
        raise ExecutionError(
            f"range predicate on string column "
            f"{predicate.alias}.{predicate.column} is not supported"
        )
    return phys


def group_mask(
    table: Table,
    predicates: Iterable[LocalPredicate],
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Conjunction of predicate masks.

    Over the whole table each column is read piece by piece (a
    generation's body and last chunk; every column of one generation is
    cut at the same rows) and the pieces' masks are joined once at the
    end, so no column is concatenated.
    """
    masks: Optional[List[np.ndarray]] = None
    for predicate in predicates:
        column = table.column(predicate.column)
        phys = _encoded(table, predicate)
        pieces = column.pieces if rows is None else (column.take(rows),)
        found = [physical_mask(piece, phys) for piece in pieces]
        if masks is None:
            masks = found
        else:
            for mask, more in zip(masks, found):
                mask &= more
    if masks is None:
        n = table.row_count if rows is None else len(rows)
        return np.ones(n, dtype=bool)
    return masks[0] if len(masks) == 1 else np.concatenate(masks)


def count_matches(
    table: Table,
    predicates: Iterable[LocalPredicate],
    rows: Optional[np.ndarray] = None,
) -> int:
    """Number of rows satisfying all predicates."""
    return int(group_mask(table, predicates, rows).sum())
