"""Half-open numeric intervals and rectangular regions.

All selectivity machinery works over ``[low, high)`` intervals on the
columns' physical (numeric) domain. Integer and dictionary-coded columns
convert predicates so the half-open convention is exact (e.g. ``a > 5`` on
an INT column becomes ``[6, +inf)``); float columns use the continuous
interpretation.

A :class:`Region` is an axis-aligned box: one interval per dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A half-open interval ``[low, high)``; either bound may be infinite."""

    low: float = -INF
    high: float = INF

    def __post_init__(self) -> None:
        if math.isnan(self.low) or math.isnan(self.high):
            raise ValueError("interval bounds cannot be NaN")

    @property
    def is_empty(self) -> bool:
        return self.high <= self.low

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.low) and math.isinf(self.high)

    @property
    def width(self) -> float:
        if self.is_empty:
            return 0.0
        return self.high - self.low

    def contains_value(self, value: float) -> bool:
        return self.low <= value < self.high

    def contains_interval(self, other: "Interval") -> bool:
        if other.is_empty:
            return True
        return self.low <= other.low and other.high <= self.high

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.low, other.low), min(self.high, other.high))

    def clip(self, low: float, high: float) -> "Interval":
        return Interval(max(self.low, low), min(self.high, high))

    def overlap_fraction(self, of: "Interval") -> float:
        """Fraction of ``of``'s width covered by this interval.

        Assumes ``of`` is bounded; used for uniform interpolation within
        histogram buckets.
        """
        if of.is_empty or of.width == 0.0:
            return 1.0 if self.contains_value(of.low) else 0.0
        inter = self.intersect(of)
        if inter.is_empty:
            return 0.0
        return min(1.0, inter.width / of.width)

    def __str__(self) -> str:
        return f"[{self.low}, {self.high})"


FULL = Interval()


@dataclass(frozen=True)
class Region:
    """An axis-aligned box: one interval per dimension (fixed order)."""

    intervals: Tuple[Interval, ...]

    @staticmethod
    def of(*intervals: Interval) -> "Region":
        return Region(tuple(intervals))

    @staticmethod
    def full(ndim: int) -> "Region":
        return Region(tuple(FULL for _ in range(ndim)))

    @property
    def ndim(self) -> int:
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return any(iv.is_empty for iv in self.intervals)

    def intersect(self, other: "Region") -> "Region":
        if self.ndim != other.ndim:
            raise ValueError("region dimensionality mismatch")
        return Region(
            tuple(a.intersect(b) for a, b in zip(self.intervals, other.intervals))
        )

    def contains(self, other: "Region") -> bool:
        if self.ndim != other.ndim:
            raise ValueError("region dimensionality mismatch")
        return all(
            a.contains_interval(b) for a, b in zip(self.intervals, other.intervals)
        )

    def volume_fraction(self, within: "Region") -> float:
        """Product of per-dimension overlap fractions against ``within``."""
        frac = 1.0
        for iv, box in zip(self.intervals, within.intervals):
            frac *= iv.overlap_fraction(box)
            if frac == 0.0:
                return 0.0
        return frac

    def __str__(self) -> str:
        return " x ".join(str(iv) for iv in self.intervals)


def hull(intervals: Iterable[Interval]) -> Optional[Interval]:
    """Smallest interval containing all inputs (None for no inputs)."""
    lo: Optional[float] = None
    hi: Optional[float] = None
    for iv in intervals:
        if iv.is_empty:
            continue
        lo = iv.low if lo is None else min(lo, iv.low)
        hi = iv.high if hi is None else max(hi, iv.high)
    if lo is None or hi is None:
        return None
    return Interval(lo, hi)
