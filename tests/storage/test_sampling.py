"""Sampling: fixed-size samples and the selectivity they estimate."""

import numpy as np

from repro import DataType, make_schema
from repro.jits import SampleCache
from repro.predicates import LocalPredicate, PredOp
from repro.storage import Table, fixed_size_sample


def make_table(n: int) -> Table:
    t = Table(make_schema("t", [("x", DataType.INT)]))
    t.insert_columns({"x": np.arange(n, dtype=np.int64)})
    return t


def test_fixed_size_small_table_returns_all():
    t = make_table(10)
    rows = fixed_size_sample(t, 100, np.random.default_rng(0))
    assert np.array_equal(rows, np.arange(10))


def test_fixed_size_large_table_returns_requested():
    t = make_table(100_000)
    rows = fixed_size_sample(t, 500, np.random.default_rng(0))
    assert len(rows) == 500
    assert rows.min() >= 0 and rows.max() < 100_000
    assert np.all(np.diff(rows) >= 0)  # sorted


def test_fixed_size_zero():
    t = make_table(10)
    assert len(fixed_size_sample(t, 0, np.random.default_rng(0))) == 0


def test_fixed_size_without_replacement_midrange():
    # 10 <= n < 10*size triggers the exact without-replacement path.
    t = make_table(50)
    rows = fixed_size_sample(t, 40, np.random.default_rng(0))
    assert len(rows) == 40
    assert len(np.unique(rows)) == 40


def test_fixed_size_fast_path_has_no_duplicates():
    # n >= 10*size triggers the with-replacement fast path; positions must
    # still be distinct (a duplicate would double-weight its row in masks).
    t = make_table(5_000)
    for seed in range(20):
        rows = fixed_size_sample(t, 500, np.random.default_rng(seed))
        assert len(rows) == 500
        assert len(np.unique(rows)) == 500
        assert np.all(np.diff(rows) > 0)  # sorted and strictly increasing


def test_fixed_size_fast_path_tops_up_after_collisions():
    # A tight 10x ratio makes birthday collisions near-certain; the top-up
    # loop must still deliver the full sample size.
    t = make_table(2_000)
    rows = fixed_size_sample(t, 200, np.random.default_rng(3))
    assert len(rows) == 200
    assert len(np.unique(rows)) == 200


def test_fixed_size_deterministic_with_seed():
    t = make_table(10_000)
    a = fixed_size_sample(t, 100, np.random.default_rng(42))
    b = fixed_size_sample(t, 100, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sample_selectivity_accuracy():
    # A 2000-row sample estimates a 30% predicate within a few points.
    t = make_table(50_000)
    sample, _ = SampleCache(2_000, np.random.default_rng(5)).get(t)
    mask, _ = sample.mask(t, LocalPredicate("t", "x", PredOp.LT, (15_000,)))
    assert sample.size == 2_000
    assert abs(mask.sum() / sample.size - 0.3) < 0.05
