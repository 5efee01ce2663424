"""The chunk-by-chunk gather kernel every column read goes through.

:func:`~repro.storage.snapshot.gather` must equal
``np.concatenate(chunks)[rows]`` for sorted, unsorted, repeated and empty
rows over 1 to 300 chunks (past 256 chunks the unsorted path groups by
``uint16`` chunk ids), and refuse a row outside the column;
:func:`~repro.storage.take_columns` gathers columns cut alike the same.
``REPRO_STORAGE_SCHEDULES`` sets how many examples run (default 60).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Column, take_columns
from repro.storage.snapshot import chunk_groups, gather
from repro.types import DataType


@st.composite
def chunked(draw):
    """Chunks of ``width`` values (the last 1..width) and rows into them."""
    width = draw(st.integers(1, 5))
    n_chunks = draw(st.integers(1, 300))
    size = width * (n_chunks - 1) + draw(st.integers(1, width))
    values = np.arange(size, dtype=np.int64) * 7 - 3
    chunks = [values[i : i + width] for i in range(0, size, width)]
    drawn = draw(st.lists(st.integers(0, size - 1), max_size=min(3 * size, 400)))
    rows = np.asarray(drawn, dtype=np.int64)
    shape = draw(st.sampled_from(["as drawn", "sorted", "unique", "all", "empty"]))
    if shape == "sorted":
        rows = np.sort(rows)
    elif shape == "unique":
        rows = np.unique(rows)
    elif shape == "all":
        rows = np.arange(size, dtype=np.int64)
    elif shape == "empty":
        rows = rows[:0]
    return chunks, rows


@settings(
    max_examples=int(os.environ.get("REPRO_STORAGE_SCHEDULES", "60")),
    deadline=None,
)
@given(chunked())
def test_gather_equals_a_gather_over_the_concatenation(case):
    chunks, rows = case
    want = np.concatenate(chunks)[rows]
    got = gather(chunks, rows, np.dtype(np.int64))
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_chunk_groups_keep_each_chunks_rows_in_order():
    rows = np.array([9, 1, 5, 0, 8, 4, 1], dtype=np.int64)
    order, bounds, local = chunk_groups(rows, 4, 10)
    assert bounds == [0, 3, 5, 7]
    assert rows[order].tolist() == [1, 0, 1, 5, 4, 9, 8]
    assert local.tolist() == (rows % 4).tolist()
    order, bounds, local = chunk_groups(np.sort(rows), 4, 10)
    assert order is local is None and bounds == [0, 3, 5, 7]
    # A width that is not a power of two finds the same chunks.
    order, bounds, local = chunk_groups(rows, 3, 10)
    assert bounds == [0, 3, 5, 6, 7]
    assert rows[order].tolist() == [1, 0, 1, 5, 4, 8, 9]
    assert local.tolist() == (rows % 3).tolist()


@settings(max_examples=20, deadline=None)
@given(chunked())
def test_take_columns_groups_once_for_columns_cut_alike(case):
    chunks, rows = case
    live = Column("x", DataType.INT, chunk_rows=len(chunks[0]))
    live.extend_physical(np.concatenate(chunks))
    generation = live.snapshot()
    want = np.concatenate(chunks)[rows].tolist()
    got = take_columns([live, generation], rows)
    assert [a.tolist() for a in got] == [want, want]


@pytest.mark.parametrize("rows", [[0, 10], [10], [-1, 3], [3, -1], [9, 10, 3], [12, 3]])
def test_a_row_outside_the_column_is_refused(rows):
    chunks = [np.arange(4), np.arange(4), np.arange(2)]
    with pytest.raises(IndexError):
        gather(chunks, np.array(rows), np.dtype(np.int64))
