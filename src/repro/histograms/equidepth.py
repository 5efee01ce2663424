"""Classic 1-D equi-depth histograms (the catalog's distribution statistic).

This is what RUNSTATS produces and what a traditional optimizer consults,
with the usual *uniformity-within-bucket* assumption the paper calls out as
an error source (Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import StatisticsError
from .intervals import Interval

DEFAULT_BUCKETS = 20


@dataclass
class EquiDepthHistogram:
    """Buckets ``[boundaries[i], boundaries[i+1])`` with exact counts.

    The last bucket is closed on the right so the maximum value is covered;
    this is implemented by nudging the final boundary just past the max.
    """

    boundaries: np.ndarray  # length n_buckets + 1, strictly increasing
    counts: np.ndarray  # length n_buckets, float64

    def __post_init__(self) -> None:
        self.boundaries = np.asarray(self.boundaries, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if len(self.boundaries) != len(self.counts) + 1:
            raise StatisticsError("boundary/count length mismatch")
        if len(self.counts) == 0:
            raise StatisticsError("histogram needs at least one bucket")
        if np.any(np.diff(self.boundaries) <= 0):
            raise StatisticsError("boundaries must be strictly increasing")
        if np.any(self.counts < 0):
            raise StatisticsError("bucket counts must be non-negative")

    @property
    def n_buckets(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    @property
    def low(self) -> float:
        return float(self.boundaries[0])

    @property
    def high(self) -> float:
        return float(self.boundaries[-1])

    @classmethod
    def build(
        cls,
        values: np.ndarray,
        n_buckets: int = DEFAULT_BUCKETS,
        integral: bool = False,
    ) -> "EquiDepthHistogram":
        """Build from raw values with ~equal mass per bucket.

        Duplicate quantile boundaries (heavy values) are collapsed, so the
        result may have fewer than ``n_buckets`` buckets. For ``integral``
        domains (INT columns, dictionary codes) boundaries snap to integer
        edges and the final boundary is ``max + 1``, so the half-open
        convention covers every discrete value exactly — continuous
        interpolation over discrete codes would otherwise assign ~zero
        mass to the largest value.
        """
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            raise StatisticsError("cannot build a histogram from no values")
        if n_buckets < 1:
            raise StatisticsError("n_buckets must be >= 1")
        data = np.sort(values)
        qs = np.linspace(0.0, 1.0, n_buckets + 1)
        bounds = np.quantile(data, qs)
        if integral:
            bounds = np.floor(bounds)
            bounds = np.unique(bounds)
            last = np.floor(data[-1]) + 1.0
            if bounds[-1] >= last:
                bounds = bounds[:-1]
            bounds = np.append(bounds, last)
            if len(bounds) == 1:
                bounds = np.array([last - 1.0, last])
        else:
            bounds = np.unique(bounds)
            # Nudge the final boundary so max values land inside the last
            # bucket under the half-open convention.
            if len(bounds) == 1:
                bounds = np.array([bounds[0], np.nextafter(bounds[0], np.inf)])
            else:
                bounds[-1] = np.nextafter(bounds[-1], np.inf)
        counts = np.diff(np.searchsorted(data, bounds, side="left")).astype(
            np.float64
        )
        # searchsorted('left') excludes values equal to the first boundary
        # from no bucket; they start at index 0 so the first diff counts them.
        return cls(boundaries=bounds, counts=counts)

    def bucket_of(self, value: float) -> int:
        """Index of the bucket containing ``value`` (clipped to the range)."""
        idx = int(np.searchsorted(self.boundaries, value, side="right")) - 1
        return max(0, min(idx, self.n_buckets - 1))

    def estimate_count(self, interval: Interval) -> float:
        """Estimated rows inside ``interval``, uniform within buckets."""
        if interval.is_empty:
            return 0.0
        total = 0.0
        for i in range(self.n_buckets):
            bucket = Interval(
                float(self.boundaries[i]), float(self.boundaries[i + 1])
            )
            frac = interval.overlap_fraction(bucket)
            if frac > 0.0:
                total += frac * float(self.counts[i])
        return total

    def estimate_selectivity(self, interval: Interval) -> float:
        t = self.total
        if t == 0.0:
            return 0.0
        return min(1.0, self.estimate_count(interval) / t)

    def boundary_list(self) -> List[float]:
        return [float(b) for b in self.boundaries]

    def densities(self) -> np.ndarray:
        """Per-bucket density (count / width)."""
        widths = np.diff(self.boundaries)
        return self.counts / widths

    def scaled(self, factor: float) -> "EquiDepthHistogram":
        """A copy with all counts multiplied by ``factor``."""
        if factor < 0:
            raise StatisticsError("scale factor must be non-negative")
        return EquiDepthHistogram(
            boundaries=self.boundaries.copy(), counts=self.counts * factor
        )
