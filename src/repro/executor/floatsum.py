"""Exact float64 summation: the pair arithmetic behind float SUM/AVG.

Float addition is not associative, so a float SUM added up shard by
shard would depend on the shard layout. This module sums *exactly*:
every float64 is decomposed into an integer mantissa and a power-of-two
exponent (``np.frexp``), mantissas are accumulated per (group, exponent)
in overflow-safe int64 lanes, and per-group totals combine into one
arbitrary-precision ``(mantissa, exp2)`` pair. The pair represents the
mathematically exact sum ``mantissa * 2**exp2``; converting it to float64
rounds once, correctly. Pairs add without rounding, so the in-process
aggregate and any shard layout give bit-identical answers — the value
``math.fsum`` returns.

Inputs must be finite (``executor.aggregate`` keeps groups holding inf
or NaN out); the int64 lane accumulation is exact for up to 2**31 rows
per group per exponent, far above anything a batch holds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

import numpy as np

#: 2**53 — frexp mantissas in [0.5, 1) scale to integers in [2**52, 2**53].
_MANTISSA_SCALE = float(1 << 53)

#: The exact-sum pair representing zero.
ZERO_PAIR: Tuple[int, int] = (0, 0)


def add_pairs(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    """Exact sum of two (mantissa, exp2) pairs (commutative, associative)."""
    ma, ea = a
    mb, eb = b
    if ma == 0:
        return b
    if mb == 0:
        return a
    e = min(ea, eb)
    m = (ma << (ea - e)) + (mb << (eb - e))
    if m == 0:
        return ZERO_PAIR
    # Normalize away trailing zero bits so mantissas stay small across
    # long accumulation chains.
    shift = (m & -m).bit_length() - 1
    return (m >> shift, e + shift)


def pair_to_float(pair: Tuple[int, int]) -> float:
    """Round an exact (mantissa, exp2) pair to the nearest float64."""
    m, e = pair
    if m == 0:
        return 0.0
    try:
        if e >= 0:
            return float(m << e)
        return float(Fraction(m, 1 << -e))
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def _zero_pairs(n: int) -> np.ndarray:
    out = np.empty(n, dtype=object)
    out[:] = [ZERO_PAIR] * n
    return out


def group_sum_pairs(
    values: np.ndarray, gids: np.ndarray, n_groups: int
) -> np.ndarray:
    """Exact per-group sums of finite float64 values as (mantissa, exp2).

    Vectorized over rows: mantissas are split into 32-bit lo/hi int64
    lanes and accumulated per (group, exponent) with ``np.add.at``; only
    the final cross-exponent combine runs in Python, once per touched
    (group, exponent) cell. Returned as an object array so partials of
    any size pickle cleanly between processes.
    """
    totals = _zero_pairs(n_groups)
    if len(values) == 0:
        return totals
    mantissa, exponent = np.frexp(values.astype(np.float64))
    m_int = np.round(mantissa * _MANTISSA_SCALE).astype(np.int64)
    e_int = exponent.astype(np.int64) - 53
    live = m_int != 0  # zeros contribute nothing at any exponent
    m_int, e_int = m_int[live], e_int[live]
    gids = np.asarray(gids, dtype=np.int64)[live]
    mask32 = np.int64(0xFFFFFFFF)
    for exp in np.unique(e_int):
        sel = e_int == exp
        g = gids[sel]
        mm = m_int[sel]
        lo = np.zeros(n_groups, dtype=np.int64)
        hi = np.zeros(n_groups, dtype=np.int64)
        # mm == (mm >> 32) * 2**32 + (mm & mask32) holds for negatives
        # too (arithmetic shift); each lane stays far from int64 range.
        np.add.at(lo, g, mm & mask32)
        np.add.at(hi, g, mm >> 32)
        for gi in np.unique(g):
            cell = (int(hi[gi]) << 32) + int(lo[gi])
            if cell:
                totals[gi] = add_pairs(totals[gi], (cell, int(exp)))
    return totals


def merge_pair_arrays(
    concatenated: np.ndarray, gids: np.ndarray, n_groups: int
) -> np.ndarray:
    """Combine concatenated pair partials by merged group id."""
    merged = _zero_pairs(n_groups)
    for pos, pair in enumerate(concatenated):
        gi = int(gids[pos])
        merged[gi] = add_pairs(merged[gi], pair)
    return merged


def pairs_to_floats(pairs: np.ndarray) -> np.ndarray:
    """Object array of pairs -> exactly-rounded float64 values; a slot
    already holding a float passes through."""
    return np.array(
        [p if isinstance(p, float) else pair_to_float(p) for p in pairs],
        dtype=np.float64,
    )
