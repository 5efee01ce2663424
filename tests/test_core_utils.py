"""Core utilities: types, RNG helpers."""

import pytest

from repro.rng import DEFAULT_SEED, derive_rng, make_rng
from repro.types import DataType, comparable


# ----------------------------------------------------------------------
# DataType
# ----------------------------------------------------------------------
def test_validate_int():
    assert DataType.INT.validate(5) == 5
    assert DataType.INT.validate(5.0) == 5
    with pytest.raises(TypeError):
        DataType.INT.validate(5.5)
    with pytest.raises(TypeError):
        DataType.INT.validate("5")
    with pytest.raises(TypeError):
        DataType.INT.validate(True)


def test_validate_float():
    assert DataType.FLOAT.validate(5) == 5.0
    assert isinstance(DataType.FLOAT.validate(5), float)
    with pytest.raises(TypeError):
        DataType.FLOAT.validate("x")
    with pytest.raises(TypeError):
        DataType.FLOAT.validate(False)


def test_validate_string():
    assert DataType.STRING.validate("x") == "x"
    with pytest.raises(TypeError):
        DataType.STRING.validate(1)


def test_is_numeric():
    assert DataType.INT.is_numeric
    assert DataType.FLOAT.is_numeric
    assert not DataType.STRING.is_numeric


def test_comparable():
    assert comparable(DataType.INT, 5)
    assert comparable(DataType.INT, 5.5)
    assert not comparable(DataType.INT, "x")
    assert not comparable(DataType.INT, True)
    assert comparable(DataType.STRING, "x")
    assert not comparable(DataType.STRING, 5)


# ----------------------------------------------------------------------
# RNG
# ----------------------------------------------------------------------
def test_make_rng_deterministic():
    assert make_rng(1).integers(0, 100, 5).tolist() == make_rng(1).integers(
        0, 100, 5
    ).tolist()
    assert make_rng().integers(0, 1000) == make_rng(DEFAULT_SEED).integers(0, 1000)


def test_derive_rng_independent_streams():
    parent = make_rng(7)
    child_a = derive_rng(parent, 1)
    child_b = derive_rng(parent, 2)
    assert child_a.integers(0, 10**9) != child_b.integers(0, 10**9)


def test_derive_rng_reproducible():
    a = derive_rng(make_rng(7), 42).integers(0, 10**9)
    b = derive_rng(make_rng(7), 42).integers(0, 10**9)
    assert a == b
