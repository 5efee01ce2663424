"""Row sampling used by RUNSTATS and by JITS statistics collection.

The paper (Section 4, citing [1, 8, 12]) relies on the result that a fixed
sample size — independent of table size — suffices for accurate statistics,
so :func:`fixed_size_sample` is the one sampler.
"""

from __future__ import annotations

import numpy as np

from .table import Table

DEFAULT_SAMPLE_SIZE = 2000


def fixed_size_sample(
    table: Table, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random sample of row positions, without replacement.

    Returns all rows when the table is smaller than ``size``. The result is
    sorted so downstream columnar access stays cache-friendly.
    """
    n = table.row_count
    if size <= 0:
        return np.empty(0, dtype=np.int64)
    if n <= size:
        return np.arange(n, dtype=np.int64)
    if n >= size * 10:
        # Draw with replacement: O(size) instead of O(n). With <=10%
        # sampling fraction collisions are rare, but they do happen, and a
        # duplicated position would double-weight its row in every mask; so
        # dedupe and top up until the sample really holds ``size`` distinct
        # positions. This keeps the per-query collection overhead
        # independent of table size, which is the paper's premise for JIT
        # collection being affordable.
        rows = np.unique(rng.integers(0, n, size=size, dtype=np.int64))
        while len(rows) < size:
            extra = rng.integers(0, n, size=size - len(rows), dtype=np.int64)
            rows = np.unique(np.concatenate([rows, extra]))
        return rows  # np.unique already sorts
    rows = rng.choice(n, size=size, replace=False).astype(np.int64)
    return np.sort(rows)
