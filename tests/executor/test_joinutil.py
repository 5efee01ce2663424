"""Equi-join matching (dense and sorted paths vs brute force) and
multi-column group factorization."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor import equi_join_indices
from repro.executor.joinutil import _dense_join, _sorted_join, factorize, group_ids
from repro.storage.buckets import dense_limit, dense_span


def brute(left, right):
    return sorted(
        (i, j)
        for i, lv in enumerate(left)
        for j, rv in enumerate(right)
        if lv == rv
    )


def as_pairs(li, ri):
    return sorted(zip(li.tolist(), ri.tolist()))


def test_basic_duplicates():
    left = np.array([3, 1, 2, 2, 9])
    right = np.array([2, 2, 3, 5])
    li, ri = equi_join_indices(left, right)
    assert as_pairs(li, ri) == brute(left, right)


def test_empty_sides():
    empty = np.array([], dtype=np.int64)
    li, ri = equi_join_indices(empty, np.array([1, 2]))
    assert len(li) == 0
    li, ri = equi_join_indices(np.array([1, 2]), empty)
    assert len(ri) == 0


def test_no_matches():
    li, ri = equi_join_indices(np.array([1, 2]), np.array([3, 4]))
    assert len(li) == 0 and len(ri) == 0


def test_float_keys_use_sorted_path():
    left = np.array([1.5, 2.5, 1.5])
    right = np.array([1.5, 3.5])
    li, ri = equi_join_indices(left, right)
    assert as_pairs(li, ri) == brute(left, right)


def test_sparse_int_keys_use_sorted_path():
    left = np.array([10**15, 5])
    right = np.array([10**15, 10**15])
    li, ri = equi_join_indices(left, right)
    assert as_pairs(li, ri) == brute(left, right)


def test_negative_keys():
    left = np.array([-5, -1, 0, -5])
    right = np.array([-5, 0])
    li, ri = equi_join_indices(left, right)
    assert as_pairs(li, ri) == brute(left, right)


def test_dense_and_sorted_agree():
    rng = np.random.default_rng(0)
    left = rng.integers(0, 50, 300)
    right = rng.integers(0, 50, 200)
    dense = as_pairs(*_dense_join(left, right, int(right.min()),
                                  int(right.max() - right.min() + 1)))
    sorted_ = as_pairs(*_sorted_join(left, right))
    assert dense == sorted_


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=30),
    st.lists(st.integers(-2, 14), max_size=60),
    st.integers(1, 5000),
)
def test_counting_and_sorted_paths_give_the_same_pairs_in_order(
    build, probe, stride
):
    """Small, wide (``stride`` spreads the keys) and duplicate-key builds:
    both paths give every pair in probe order, then build position, and
    the join gives the same."""
    right = np.asarray(build, dtype=np.int64) * stride
    left = np.asarray(probe, dtype=np.int64) * stride
    rmin = int(right.min())
    counted = _dense_join(left, right, rmin, int(right.max()) - rmin + 1)
    searched = _sorted_join(left, right)
    want = [a.tolist() for a in searched]
    assert [a.tolist() for a in counted] == want
    assert [a.tolist() for a in equi_join_indices(left, right)] == want


def test_a_small_wide_build_takes_the_counting_path(monkeypatch):
    """A build span within the probe side's length is counted, not sorted:
    3 build keys over a span of 100,000, probed by 100,000 keys."""
    import repro.executor.joinutil as joinutil

    def refuse(left, right):
        raise AssertionError("took the sorted path")

    monkeypatch.setattr(joinutil, "_sorted_join", refuse)
    right = np.array([0, 50_000, 99_999])
    left = np.arange(100_000)
    li, ri = equi_join_indices(left, right)
    assert (li.tolist(), ri.tolist()) == ([0, 50_000, 99_999], [0, 1, 2])
    assert dense_span(right) is None  # the build alone would not admit it


def test_a_build_span_past_both_limits_is_sorted(monkeypatch):
    """A span past the build's dense limit and the probe's length would
    make the counting arrays outgrow the join's input: it is sorted."""
    import repro.executor.joinutil as joinutil

    def refuse(left, right, rmin, span):
        raise AssertionError("took the counting path")

    monkeypatch.setattr(joinutil, "_dense_join", refuse)
    right = np.array([0, 50_000, 100_000])
    left = np.arange(0, 100_000, 5)
    li, ri = equi_join_indices(left, right)
    assert (li.tolist(), ri.tolist()) == ([0, 10_000], [0, 1])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=-30, max_value=30), max_size=40),
    st.lists(st.integers(min_value=-30, max_value=30), max_size=40),
)
def test_matches_brute_force(left_list, right_list):
    left = np.asarray(left_list, dtype=np.int64)
    right = np.asarray(right_list, dtype=np.int64)
    li, ri = equi_join_indices(left, right)
    assert as_pairs(li, ri) == brute(left_list, right_list)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), max_size=30
    ),
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), max_size=30
    ),
)
def test_float_matches_brute_force(left_list, right_list):
    left = np.asarray(left_list)
    right = np.asarray(right_list)
    li, ri = equi_join_indices(left, right)
    assert as_pairs(li, ri) == brute(left_list, right_list)


# ----------------------------------------------------------------------
# factorize: multi-column group ids
# ----------------------------------------------------------------------
def factorize_reference(columns):
    """The row-sort formulation ``factorize`` replaces."""
    codes = [np.unique(c, return_inverse=True)[1].reshape(-1) for c in columns]
    _, first_idx, gids = np.unique(
        np.stack(codes, axis=1), axis=0, return_index=True, return_inverse=True
    )
    return gids.reshape(-1), first_idx


def assert_factorize_matches(columns):
    gids, first_idx = factorize(columns)
    want_gids, want_first = factorize_reference(columns)
    assert gids.dtype == np.int64 and first_idx.dtype == np.int64
    np.testing.assert_array_equal(gids, want_gids)
    np.testing.assert_array_equal(first_idx, want_first)


FLOAT_POOL = [-0.0, 0.0, 1.5, -2.25, np.inf, -np.inf, 1e300, -1e-300]


@st.composite
def key_columns(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    kinds = draw(
        st.lists(st.sampled_from(["int", "float", "codes"]), min_size=1, max_size=4)
    )
    columns = []
    for kind in kinds:
        if kind == "int":
            values = st.integers(min_value=-(2**62), max_value=2**62)
            small = st.integers(min_value=-3, max_value=3)
            data = draw(st.lists(st.one_of(small, values), min_size=n, max_size=n))
            columns.append(np.asarray(data, dtype=np.int64))
        elif kind == "float":
            data = draw(st.lists(st.sampled_from(FLOAT_POOL), min_size=n, max_size=n))
            columns.append(np.asarray(data, dtype=np.float64))
        else:  # dictionary codes of a string column
            data = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
            columns.append(np.asarray(data, dtype=np.int32))
    return columns


@settings(max_examples=200, deadline=None)
@given(key_columns())
def test_factorize_matches_row_unique(columns):
    assert_factorize_matches(columns)


def test_factorize_single_row_and_empty():
    assert_factorize_matches([np.array([7], dtype=np.int64), np.array([-0.0])])
    assert_factorize_matches([np.empty(0, dtype=np.int64), np.empty(0)])
    gids, first_idx = factorize([np.empty(0, dtype=np.int64)])
    assert gids.shape == (0,) and first_idx.shape == (0,)


@settings(max_examples=6, deadline=None)
@given(
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_factorize_never_overflows(n_columns, seed):
    """Every column all-distinct, so the product of the cardinalities
    exceeds 2**63: a single mixed-radix code would overflow int64."""
    n = int(np.ceil(2 ** (63 / n_columns))) + 1
    rng = np.random.default_rng(seed)
    columns = [
        rng.permutation(n).astype(np.float64 if i % 2 else np.int64) * 3 - n
        for i in range(n_columns)
    ]
    product = 1
    for column in columns:
        product *= len(np.unique(column))
    assert product > 2**63
    assert_factorize_matches(columns)


@st.composite
def group_keys(draw):
    """Integer keys for ``group_ids``: negative ones, one group, a span
    exactly at the dense limit or one past it, and empty input."""
    n = draw(st.integers(min_value=0, max_value=50))
    shape = draw(st.sampled_from(["small", "one", "at_limit", "past_limit"]))
    base = draw(st.integers(min_value=-(2**20), max_value=2**20))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if shape == "small":
        keys = rng.integers(-5, 5, n)
    elif shape == "one":
        keys = np.zeros(n, dtype=np.int64)
    else:
        span = dense_limit(max(n, 2)) + (shape == "past_limit")
        keys = rng.integers(0, span, n)
        if n >= 2:
            keys[rng.permutation(n)[:2]] = (0, span - 1)
    return (keys + base).astype(draw(st.sampled_from([np.int64, np.int32])))


@settings(max_examples=200, deadline=None)
@given(group_keys())
def test_group_ids_matches_unique(keys):
    gids, first_idx = group_ids(keys)
    _, want_first, want_gids = np.unique(
        keys, return_index=True, return_inverse=True
    )
    assert gids.dtype == first_idx.dtype == np.int64
    assert gids.tolist() == want_gids.tolist()
    assert first_idx.tolist() == want_first.tolist()


def test_group_ids_takes_the_counting_path_up_to_the_dense_limit():
    keys = np.array([-7, -7 + dense_limit(3) - 1, -7])
    assert dense_span(keys) is not None
    assert [a.tolist() for a in group_ids(keys)] == [[0, 1, 0], [0, 1]]
    assert dense_span(np.append(keys, -7 + dense_limit(4))) is None
