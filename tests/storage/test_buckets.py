"""The dense bucket layout against its counting-sort definition."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.storage.buckets import dense_buckets
from repro.storage.index import HashIndex

DENSE_SPAN_MIN = HashIndex._DENSE_SPAN_MIN


def dense_limit(n: int) -> int:
    """The largest span the dense-span rule admits for n keys."""
    return max(HashIndex._DENSE_SPAN_FACTOR * n, DENSE_SPAN_MIN)


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
