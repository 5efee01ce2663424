"""The dense bucket layout against its counting-sort definition, and the
one dense-span rule every dense layout obeys."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.executor.joinutil import equi_join_indices
from repro.storage.buckets import dense_buckets, dense_limit, dense_span
from repro.storage.index import HashIndex

DENSE_SPAN_MIN = dense_limit(1)


def reference_buckets(keys: np.ndarray, span: int):
    """Bucket starts from a bincount, positions from a stable argsort."""
    starts = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=span))))
    return starts, np.argsort(keys, kind="stable")


@st.composite
def bucket_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    span = draw(
        st.one_of(
            st.just(1),
            st.integers(min_value=1, max_value=2 * n),
            st.just(dense_limit(n)),
        )
    )
    shape = draw(st.sampled_from(["random", "equal", "monotone", "reverse"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    keys = np.random.default_rng(seed).integers(0, span, n)
    if shape == "equal":
        keys[:] = keys[0]
    elif shape == "monotone":
        keys.sort()
    elif shape == "reverse":
        keys = np.sort(keys)[::-1].copy()
    if draw(st.booleans()):
        keys[draw(st.integers(min_value=0, max_value=n - 1))] = span - 1
    return keys.astype(np.int64), span


@given(bucket_inputs())
@example((np.array([0], dtype=np.int64), 1))
@example((np.zeros(7, dtype=np.int64), 1))
@example((np.array([3, 3, 3, 3], dtype=np.int64), 4))
@example((np.arange(50, dtype=np.int64), 50))
@example((np.arange(50, dtype=np.int64)[::-1].copy(), 50))
@example((np.array([0, DENSE_SPAN_MIN - 1, 5, 0], dtype=np.int64), DENSE_SPAN_MIN))
def test_dense_buckets_match_stable_argsort(case):
    keys, span = case
    starts, order = dense_buckets(keys, span)
    want_starts, want_order = reference_buckets(keys, span)
    assert starts.dtype == order.dtype == np.int64
    assert starts.tolist() == want_starts.tolist()
    assert order.tolist() == want_order.tolist()


def test_dense_buckets_leave_the_keys_alone():
    keys = np.array([2, 0, 1, 0, 2], dtype=np.int64)
    dense_buckets(keys, 3)
    assert keys.tolist() == [2, 0, 1, 0, 2]


@given(
    st.integers(min_value=2, max_value=20_000),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-2, max_value=2),
)
def test_dense_span_admits_exactly_the_rule(n, kmin, slack):
    """``dense_span`` takes a span iff ``span <= dense_limit(n)``, and
    the hash index and the hash join both follow it."""
    span = max(1, dense_limit(n) + slack)
    keys = np.full(n, kmin, dtype=np.int64)
    keys[-1] = kmin + span - 1
    admitted = span <= dense_limit(n)
    assert dense_span(keys) == ((kmin, span) if admitted else None)
    assert HashIndex(keys)._dense == admitted
    left, right = equi_join_indices(keys[-1:], keys)
    assert right.tolist() == ([n - 1] if span > 1 else list(range(n)))


def test_dense_span_refuses_floats_and_empty_keys():
    assert dense_span(np.empty(0, dtype=np.int64)) is None
    assert dense_span(np.arange(4, dtype=np.float64)) is None
    assert dense_span(np.array([5, 7], dtype=np.int64)) == (5, 3)
