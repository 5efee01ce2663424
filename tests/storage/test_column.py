"""Column storage: typed appends, growth, versioning, deletes."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import Column
from repro.types import DataType


def test_int_column_appends():
    c = Column("x", DataType.INT)
    c.extend([1, 2, 3])
    assert len(c) == 3
    assert c.data.tolist() == [1, 2, 3]
    assert c.data.dtype == np.int64


def test_float_column_accepts_ints():
    c = Column("x", DataType.FLOAT)
    c.extend([1, 2.5])
    assert c.data.tolist() == [1.0, 2.5]
    assert c.data.dtype == np.float64


def test_int_column_rejects_fractional_float():
    c = Column("x", DataType.INT)
    c.append(3.0)  # integral float is fine
    with pytest.raises(TypeError):
        c.append(3.5)


def test_type_validation_rejects_bool():
    c = Column("x", DataType.INT)
    with pytest.raises(TypeError):
        c.append(True)


def test_string_column_dictionary_encodes():
    c = Column("s", DataType.STRING)
    c.extend(["a", "b", "a"])
    assert c.data.tolist() == [0, 1, 0]
    assert c.logical_values() == ["a", "b", "a"]


def test_string_column_rejects_numbers():
    c = Column("s", DataType.STRING)
    with pytest.raises(TypeError):
        c.append(5)


def test_growth_beyond_initial_capacity():
    c = Column("x", DataType.INT)
    c.extend(list(range(1000)))
    assert len(c) == 1000
    assert c.data[-1] == 999


def test_lookup_value_does_not_mutate_dictionary():
    c = Column("s", DataType.STRING)
    c.append("present")
    assert c.lookup_value("absent") is None
    assert len(c.dictionary) == 1
    assert c.lookup_value("present") == 0


def test_set_at_overwrites_rows():
    c = Column("x", DataType.INT)
    c.extend([1, 2, 3, 4])
    c.set_at(np.array([1, 3]), 9)
    assert c.data.tolist() == [1, 9, 3, 9]


def test_set_physical_overwrites_rows():
    c = Column("x", DataType.FLOAT)
    c.extend([1.0, 2.0])
    c.set_physical(np.array([0]), np.array([5.0]))
    assert c.data.tolist() == [5.0, 2.0]


def test_delete_rows_compacts():
    c = Column("x", DataType.INT)
    c.extend([10, 20, 30, 40])
    keep = np.array([True, False, True, False])
    c.delete_rows(keep)
    assert c.data.tolist() == [10, 30]


def test_delete_rows_mask_length_mismatch():
    c = Column("x", DataType.INT)
    c.extend([1, 2])
    with pytest.raises(StorageError):
        c.delete_rows(np.array([True]))


def test_extend_physical_fast_path():
    c = Column("x", DataType.INT)
    c.extend_physical(np.arange(5))
    assert c.data.tolist() == [0, 1, 2, 3, 4]


def test_logical_values_subset():
    c = Column("s", DataType.STRING)
    c.extend(["p", "q", "r"])
    assert c.logical_values(np.array([2, 0])) == ["r", "p"]


def test_a_write_past_the_end_fails_even_into_spare_capacity():
    c = Column("x", DataType.INT, chunk_rows=4)
    c.extend([1, 2, 3, 4, 5, 6])  # the last chunk holds 2 of 4 slots
    for rows in ([6], [7, 0], [0, 6]):
        with pytest.raises(IndexError):
            c.set_physical(np.array(rows), np.zeros(len(rows), dtype=np.int64))
    assert c.data.tolist() == [1, 2, 3, 4, 5, 6]
