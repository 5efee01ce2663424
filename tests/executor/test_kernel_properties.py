"""Seeded property tests for the sharded scan kernels.

The invariant under test: for any column data, predicate set and shard
layout (including empty and degenerate shards), running a kernel per
shard and merging in the parent equals running it once over a single
shard. Randomization is deterministic via ``repro.rng.make_rng``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.executor.joinutil import factorize
from repro.executor.parallel.fragments import merge_group_partials
from repro.executor.parallel.kernels import (
    column_stats_shard,
    distinct_shard,
    group_aggregate_shard,
    scan_shard,
)
from repro.catalog.runstats import column_stats_raw
from repro.predicates import LocalPredicate, PredOp, group_mask
from repro.predicates.physical import PhysPredicate, encode_predicates
from repro.rng import make_rng
from tests.conftest import build_mini_db

N_TRIALS = 25


def random_arrays(rng, n_rows: int):
    """Random physical columns: int64, float64 and dictionary codes
    (strings are scanned as their code arrays; ``codes`` includes runs
    and, sometimes, a single constant value)."""
    return {
        "i": rng.integers(-50, 50, size=n_rows).astype(np.int64),
        "f": np.round(rng.normal(0, 100, size=n_rows), 2),
        "s": rng.integers(0, max(1, rng.integers(1, 8)), size=n_rows).astype(
            np.float64
        ),
    }


def random_predicates(rng, arrays) -> tuple:
    preds = []
    for _ in range(rng.integers(0, 4)):
        column = ("i", "f", "s")[rng.integers(0, 3)]
        data = arrays[column]
        pick = float(data[rng.integers(0, len(data))]) if len(data) else 0.0
        op = ("EQ", "NE", "IN", "BETWEEN", "LT", "LE", "GT", "GE")[
            rng.integers(0, 8)
        ]
        if op == "IN":
            k = int(rng.integers(1, 4))
            values = tuple(
                float(data[rng.integers(0, len(data))]) if len(data) else 0.0
                for _ in range(k)
            )
            preds.append(PhysPredicate(column, op, values))
        elif op == "BETWEEN":
            lo, hi = sorted((pick, pick + float(rng.integers(0, 40))))
            preds.append(PhysPredicate(column, op, (lo, hi)))
        elif op in ("EQ", "NE") and rng.integers(0, 5) == 0:
            # A dictionary miss: the value never occurs (empty predicate,
            # the engine's analogue of matching against absent strings).
            preds.append(PhysPredicate(column, op, empty=True))
        else:
            preds.append(PhysPredicate(column, op, (pick,)))
    return tuple(preds)


def random_bounds(rng, n: int):
    """A partition of [0, n) with 1..6 shards; duplicated cut points make
    empty shards, and n == 0 collapses to one empty shard."""
    shards = int(rng.integers(1, 7))
    cuts = sorted(int(rng.integers(0, n + 1)) for _ in range(shards - 1))
    edges = [0] + cuts + [n]
    return list(zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_sharded_scan_equals_single_shard(trial):
    rng = make_rng(1000 + trial)
    n = int(rng.integers(0, 400))
    arrays = random_arrays(rng, n)
    preds = random_predicates(rng, arrays)
    bounds = random_bounds(rng, n)
    single = scan_shard(arrays, preds, 0, n)
    sharded = np.concatenate(
        [scan_shard(arrays, preds, s, t) for s, t in bounds]
    ) if bounds else np.empty(0, dtype=np.int64)
    np.testing.assert_array_equal(sharded, single)


def test_empty_table_scan():
    arrays = {"i": np.empty(0, dtype=np.int64)}
    preds = (PhysPredicate("i", "GT", (0.0,)),)
    assert len(scan_shard(arrays, preds, 0, 0)) == 0


def test_all_constant_column_statistics_match():
    """Degenerate distributions (one distinct value — the closest thing
    this engine has to an all-NULL column) survive the kernel path."""
    data = np.full(257, 42.0)
    arrays = {"c": data}
    raw_kernel = column_stats_shard(
        arrays, "c", None, integral=True, scale=1.0, n_buckets=8, n_frequent=4
    )
    raw_direct = column_stats_raw(
        data, integral=True, scale=1.0, n_buckets=8, n_frequent=4
    )
    assert raw_kernel["n_distinct"] == raw_direct["n_distinct"] == 1.0
    assert raw_kernel["min_value"] == raw_direct["min_value"] == 42.0
    assert repr(raw_kernel["histogram"]) == repr(raw_direct["histogram"])


def test_empty_column_statistics():
    raw = column_stats_shard(
        {"c": np.empty(0)}, "c", None,
        integral=False, scale=1.0, n_buckets=8, n_frequent=4,
    )
    assert raw["n_distinct"] == 0.0 and raw["histogram"] is None


@pytest.mark.parametrize("trial", range(10))
def test_empty_string_predicates_on_dictionary_columns(trial):
    """EQ/IN on a string absent from the dictionary match nothing; NE on
    it matches everything — shard layout cannot change that."""
    rng = make_rng(4000 + trial)
    n = int(rng.integers(1, 200))
    arrays = random_arrays(rng, n)
    for op, want in (("EQ", 0), ("IN", 0), ("NE", n)):
        preds = (PhysPredicate("s", op, empty=True),)
        single = scan_shard(arrays, preds, 0, n)
        assert len(single) == want
        bounds = random_bounds(rng, n)
        sharded = np.concatenate(
            [scan_shard(arrays, preds, s, t) for s, t in bounds]
        )
        np.testing.assert_array_equal(sharded, single)


@pytest.mark.parametrize("trial", range(10))
def test_encoded_table_scan_matches_group_mask(trial):
    """End-to-end over a real table: encode_predicates + sharded kernels
    reproduce ``group_mask`` exactly, dictionary strings included."""
    rng = make_rng(5000 + trial)
    db = build_mini_db(n_owners=60, n_cars=180, seed=11)
    table = db.table("car")
    options = [
        LocalPredicate("car", "price", PredOp.GT, (float(rng.integers(2000, 60000)),)),
        LocalPredicate("car", "year", PredOp.BETWEEN,
                       (int(rng.integers(1995, 2003)), int(rng.integers(2003, 2010)))),
        LocalPredicate("car", "make", PredOp.EQ,
                       (("Toyota", "Honda", "Ford", "NoSuchMake")[rng.integers(0, 4)],)),
        LocalPredicate("car", "model", PredOp.IN, (("Camry", "Civic"))),
        LocalPredicate("car", "ownerid", PredOp.LE, (int(rng.integers(1, 60)),)),
    ]
    picked = [p for p in options if rng.integers(0, 2)] or options[:1]
    phys = encode_predicates(table, picked)
    assert phys is not None
    arrays = {
        name.lower(): table.column_data(name)
        for name in table.schema.column_names()
    }
    n = table.row_count
    bounds = random_bounds(rng, n)
    got = np.concatenate([scan_shard(arrays, phys, s, t) for s, t in bounds])
    want = np.flatnonzero(group_mask(table, picked)).astype(np.int64)
    np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Fragment kernels: grouped partials and distinct
# ----------------------------------------------------------------------
GROUP_SPECS = (("count", ""), ("sum", "i"), ("min", "i"), ("max", "f"))


def _assert_group_results_equal(got, want):
    g_keys, g_prims, g_groups, g_matched = got
    w_keys, w_prims, w_groups, w_matched = want
    assert (g_groups, g_matched) == (w_groups, w_matched)
    for g, w in zip(g_keys, w_keys):
        np.testing.assert_array_equal(g, w)
    for g, w in zip(g_prims, w_prims):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_group_partials_invariant_under_shard_layout(trial):
    """group_aggregate_shard partials merged across any shard layout
    equal the single-shard result — split boundaries cannot leak into
    group keys, counts, integer sums or extremes."""
    rng = make_rng(6000 + trial)
    n = int(rng.integers(0, 400))
    arrays = random_arrays(rng, n)
    preds = random_predicates(rng, arrays)
    keys = ((), ("s",), ("s", "i"))[rng.integers(0, 3)]
    bounds = random_bounds(rng, n)
    single = merge_group_partials(
        [group_aggregate_shard(arrays, preds, 0, n, keys, GROUP_SPECS)],
        len(keys),
        GROUP_SPECS,
    )
    parts = [
        group_aggregate_shard(arrays, preds, s, t, keys, GROUP_SPECS)
        for s, t in bounds
    ]
    merged = merge_group_partials(parts, len(keys), GROUP_SPECS)
    _assert_group_results_equal(merged, single)


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_group_partials_merge_is_associative(trial):
    """Merging shard partials in one pass equals merging two merged
    halves: the merged shape is itself a valid partial, so any merge
    tree yields the same groups."""
    rng = make_rng(6500 + trial)
    n = int(rng.integers(1, 400))
    arrays = random_arrays(rng, n)
    preds = random_predicates(rng, arrays)
    keys = ((), ("s",), ("s", "i"))[rng.integers(0, 3)]
    bounds = random_bounds(rng, n)
    parts = [
        group_aggregate_shard(arrays, preds, s, t, keys, GROUP_SPECS)
        for s, t in bounds
    ]
    flat = merge_group_partials(parts, len(keys), GROUP_SPECS)
    cut = int(rng.integers(0, len(parts) + 1))
    halves = []
    for half in (parts[:cut], parts[cut:]):
        if half:
            k, p, _, m = merge_group_partials(half, len(keys), GROUP_SPECS)
            halves.append((k, p, m))
    nested = merge_group_partials(halves or parts, len(keys), GROUP_SPECS)
    _assert_group_results_equal(nested, flat)


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_distinct_shards_merge_invariant_under_layout(trial):
    """Shard-local dedup + parent first-occurrence merge equals the
    single-shard distinct for any split boundaries."""
    rng = make_rng(9500 + trial)
    n = int(rng.integers(1, 400))
    arrays = random_arrays(rng, n)
    preds = random_predicates(rng, arrays)
    columns = (("s",), ("s", "i"))[rng.integers(0, 2)]
    single_rows, _, single_matched = distinct_shard(
        arrays, preds, 0, n, columns
    )
    runs = [
        distinct_shard(arrays, preds, s, t, columns)
        for s, t in random_bounds(rng, n)
    ]
    rows = np.concatenate([run[0] for run in runs])
    if len(rows):
        values = [
            np.concatenate([run[1][j] for run in runs])
            for j in range(len(columns))
        ]
        rows = rows[np.sort(factorize(values)[1])]
    assert sum(run[2] for run in runs) == single_matched
    np.testing.assert_array_equal(rows, single_rows)
