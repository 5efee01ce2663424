"""Columnar batches flowing between plan operators.

A :class:`ColumnVector` is a numpy array plus enough metadata to interpret
it (logical type, string dictionary). A :class:`Batch` maps
``(alias, column_name)`` keys to equal-length vectors; after projection the
alias is the empty string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..storage import StringDictionary, Table
from ..types import DataType, Value

Key = Tuple[str, str]  # (alias, column) — alias "" after projection


@dataclass
class ColumnVector:
    values: np.ndarray
    dtype: DataType
    dictionary: Optional[StringDictionary] = None

    def __post_init__(self) -> None:
        if self.dtype is DataType.STRING and self.dictionary is None:
            raise ExecutionError("string vectors need a dictionary")

    def __len__(self) -> int:
        return len(self.values)

    def take(self, rows: np.ndarray) -> "ColumnVector":
        return ColumnVector(self.values[rows], self.dtype, self.dictionary)

    def mask(self, mask: np.ndarray) -> "ColumnVector":
        return ColumnVector(self.values[mask], self.dtype, self.dictionary)

    def decode(self) -> List[Value]:
        if self.dictionary is not None:
            return self.dictionary.decode_many(self.values)
        # One vectorized cast + tolist() instead of a Python-level
        # int()/float() call per element (the fetch-phase hot loop).
        if self.dtype is DataType.INT:
            return np.asarray(self.values, dtype=np.int64).tolist()
        return np.asarray(self.values, dtype=np.float64).tolist()

    def sort_ranks(self) -> np.ndarray:
        """Values usable for ordering (lexicographic for strings)."""
        if self.dictionary is None:
            return self.values
        perm = self.dictionary.sort_permutation()
        ranks = np.empty(len(perm), dtype=np.int64)
        ranks[perm] = np.arange(len(perm))
        if len(self.values) == 0:
            return self.values
        return ranks[self.values.astype(np.int64)]


class Batch:
    """A set of equal-length column vectors."""

    def __init__(self, columns: Dict[Key, ColumnVector], length: int):
        for key, vector in columns.items():
            if len(vector) != length:
                raise ExecutionError(
                    f"column {key} has length {len(vector)}, batch is {length}"
                )
        self.columns = columns
        self.length = length

    def __len__(self) -> int:
        return self.length

    def column(self, alias: str, name: str) -> ColumnVector:
        key = (alias.lower(), name.lower())
        vector = self.columns.get(key)
        if vector is None:
            raise ExecutionError(f"batch has no column {key}")
        return vector

    def has_column(self, alias: str, name: str) -> bool:
        return (alias.lower(), name.lower()) in self.columns

    def take(self, rows: np.ndarray) -> "Batch":
        return Batch(
            {k: v.take(rows) for k, v in self.columns.items()}, len(rows)
        )

    def mask(self, mask: np.ndarray) -> "Batch":
        count = int(mask.sum())
        return Batch({k: v.mask(mask) for k, v in self.columns.items()}, count)

    @staticmethod
    def merge(left: "Batch", right: "Batch") -> "Batch":
        if len(left) != len(right):
            raise ExecutionError("merging batches of different lengths")
        columns = dict(left.columns)
        for key, vector in right.columns.items():
            if key in columns:
                raise ExecutionError(f"duplicate column {key} in merge")
            columns[key] = vector
        return Batch(columns, len(left))

    @staticmethod
    def empty() -> "Batch":
        return Batch({}, 0)


def batch_from_table(
    table: Table,
    alias: str,
    rows: Optional[np.ndarray],
    columns: Optional[List[str]] = None,
) -> Batch:
    """Materialize (a subset of) a table as a batch."""
    names = columns if columns is not None else list(table.schema.column_names())
    out: Dict[Key, ColumnVector] = {}
    length = table.row_count if rows is None else len(rows)
    for name in names:
        column = table.column(name)
        data = column.data if rows is None else column.take(rows)
        out[(alias.lower(), name.lower())] = ColumnVector(
            data, column.dtype, column.dictionary
        )
    return Batch(out, length)


def translate_codes(
    source: StringDictionary, target: StringDictionary, codes: np.ndarray
) -> np.ndarray:
    """Map codes from one dictionary into another (-1 for missing values).

    Needed whenever string columns from different tables meet (joins,
    residual comparisons): codes are only meaningful per dictionary.
    """
    if source is target:
        return codes
    if len(codes) == 0:
        return codes.astype(np.int64)
    lookup = np.full(max(len(source), 1), -1, dtype=np.int64)
    for code, value in enumerate(source.values()):
        mapped = target.find_code(value)
        if mapped is not None:
            lookup[code] = mapped
    return lookup[codes.astype(np.int64)]
