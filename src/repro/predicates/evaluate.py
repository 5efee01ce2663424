"""Vectorized evaluation of local predicates against stored tables.

Used by three consumers: the executor's scan filters, the JITS sample
(evaluating candidate predicates on its gathered values), and the
reference executor in the tests.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..errors import ExecutionError
from ..storage import Table
from .physical import encode_predicate, physical_mask
from .predicate import LocalPredicate


def predicate_mask(
    table: Table, predicate: LocalPredicate, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boolean mask of rows satisfying the predicate."""
    data = table.column_data(predicate.column)
    return values_mask(table, predicate, data if rows is None else data[rows])


def values_mask(
    table: Table, predicate: LocalPredicate, values: np.ndarray
) -> np.ndarray:
    """Boolean mask of ``values``, physical values of the predicate's
    column of ``table``, satisfying the predicate."""
    phys = encode_predicate(table, predicate)
    if phys is None:
        # Dictionary codes do not follow string order, so range predicates
        # on strings are rejected rather than silently wrong.
        raise ExecutionError(
            f"range predicate on string column "
            f"{predicate.alias}.{predicate.column} is not supported"
        )
    return physical_mask(values, phys)


def group_mask(
    table: Table,
    predicates: Iterable[LocalPredicate],
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Conjunction of predicate masks."""
    mask: Optional[np.ndarray] = None
    for predicate in predicates:
        m = predicate_mask(table, predicate, rows)
        mask = m if mask is None else (mask & m)
    if mask is None:
        n = table.row_count if rows is None else len(rows)
        return np.ones(n, dtype=bool)
    return mask


def count_matches(
    table: Table,
    predicates: Iterable[LocalPredicate],
    rows: Optional[np.ndarray] = None,
) -> int:
    """Number of rows satisfying all predicates."""
    return int(group_mask(table, predicates, rows).sum())
