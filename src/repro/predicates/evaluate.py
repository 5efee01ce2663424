"""Vectorized evaluation of local predicates against stored tables.

Used by three consumers: the executor's scan filters, the JITS sampling
collector (evaluating candidate groups on a sample), and the reference
executor in the tests.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..errors import ExecutionError
from ..storage import Table
from .physical import encode_predicate, physical_mask
from .predicate import LocalPredicate


def _column_values(
    table: Table, column: str, rows: Optional[np.ndarray]
) -> np.ndarray:
    data = table.column_data(column)
    if rows is not None:
        data = data[rows]
    return data


def predicate_mask(
    table: Table, predicate: LocalPredicate, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boolean mask of rows satisfying the predicate."""
    phys = encode_predicate(table, predicate)
    if phys is None:
        # Dictionary codes do not follow string order, so range predicates
        # on strings are rejected rather than silently wrong.
        raise ExecutionError(
            f"range predicate on string column "
            f"{predicate.alias}.{predicate.column} is not supported"
        )
    return physical_mask(_column_values(table, predicate.column, rows), phys)


def masks_for_predicates(
    table: Table,
    predicates: Iterable[LocalPredicate],
    rows: Optional[np.ndarray],
    cache_get,
    cache_put,
):
    """One boolean mask per *distinct* predicate in ``predicates``.

    ``cache_get(predicate) -> mask | None`` and ``cache_put(predicate, mask)``
    plug an external memo (the JITS mask cache) into the evaluation.
    Returns ``(masks, hits, misses)`` where hits/misses count that
    memo's traffic.
    """
    masks = {}
    hits = misses = 0
    for predicate in predicates:
        if predicate in masks:
            continue
        mask = cache_get(predicate)
        if mask is None:
            mask = predicate_mask(table, predicate, rows)
            cache_put(predicate, mask)
            misses += 1
        else:
            hits += 1
        masks[predicate] = mask
    return masks, hits, misses


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
