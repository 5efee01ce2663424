"""RUNSTATS: collect general (basic + distribution) statistics.

This mirrors the DB2 tool the paper's prototype invokes: basic statistics
(cardinality), distribution statistics per column (min/max, distinct count,
frequent values, equi-depth histogram), optionally from a sample, and —
for the *workload statistics* experiment setting — multi-column group
histograms for a given list of column groups.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..histograms import (
    AdaptiveGridHistogram,
    EquiDepthHistogram,
    Interval,
    Region,
    domain_for_values,
)
from ..storage import Database, Table, fixed_size_sample
from ..types import DataType
from .catalog import SystemCatalog, canonical_group
from .statistics import (
    ColumnGroupStatistics,
    ColumnStatistics,
    TableStatistics,
    top_frequent_values,
)

DEFAULT_N_BUCKETS = 20
DEFAULT_N_FREQUENT = 10


def column_domain(table: Table, column: str) -> Interval:
    """Bounded physical domain of a column from its current data."""
    data = table.column_data(column)
    dtype = table.schema.column(column).dtype
    if len(data) == 0:
        return Interval(0.0, 1.0)
    integral = dtype is not DataType.FLOAT
    return domain_for_values(float(data.min()), float(data.max()), integral)


def run_runstats(
    database: Database,
    catalog: SystemCatalog,
    table_name: str,
    now: int = 0,
    columns: Optional[Iterable[str]] = None,
    with_distribution: bool = True,
    n_buckets: int = DEFAULT_N_BUCKETS,
    n_frequent: int = DEFAULT_N_FREQUENT,
    sample_size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    parallel=None,
) -> TableStatistics:
    """Collect statistics on one table and store them in the catalog.

    ``sample_size=None`` scans the full table (exact statistics). With a
    sample, distinct counts and histograms are scaled up from the sample.
    ``parallel`` (a ``ParallelScanManager``) shards the per-column
    distribution passes across the worker pool — one task per column over
    the same parent-drawn sample rows, so statistics are identical either
    way.
    """
    table = database.table(table_name)
    cardinality = table.row_count

    if sample_size is not None and sample_size < cardinality:
        if rng is None:
            rng = np.random.default_rng(0)
        rows = fixed_size_sample(table, sample_size, rng)
        scale = cardinality / max(1, len(rows))
    else:
        rows = None
        scale = 1.0

    table_stats = TableStatistics(
        table=table.name,
        cardinality=float(cardinality),
        collected_at=now,
        udi_snapshot=table.udi_total,
    )
    catalog.set_table_stats(table_stats)

    if with_distribution:
        names = list(columns) if columns is not None else list(
            table.schema.column_names()
        )
        raw_by_name = None
        if parallel is not None:
            integral_by_name = {
                name: table.schema.column(name).dtype is not DataType.FLOAT
                for name in names
            }
            raw_by_name = parallel.column_statistics(
                table,
                names,
                rows,
                scale,
                n_buckets,
                n_frequent,
                integral_by_name,
            )
        for name in names:
            if raw_by_name is not None:
                stats = ColumnStatistics(
                    column=name,
                    dtype=table.schema.column(name).dtype,
                    collected_at=now,
                    **raw_by_name[name],
                )
            else:
                stats = _column_statistics(
                    table, name, rows, scale, now, n_buckets, n_frequent
                )
            catalog.set_column_stats(table.name, stats)
    return table_stats


def column_stats_raw(
    data: np.ndarray,
    integral: bool,
    scale: float,
    n_buckets: int,
    n_frequent: int,
) -> dict:
    """Distribution statistics of one physical column array.

    Pure function over the (already row-filtered) physical values —
    shared by the sequential path below and the process-parallel
    ``column_stats`` kernel, so both compute identical statistics.
    Returns ``ColumnStatistics`` field values keyed by name.
    """
    data = data.astype(np.float64)
    if len(data) == 0:
        return dict(
            n_distinct=0.0,
            min_value=0.0,
            max_value=0.0,
            row_count=0.0,
            frequent_values=[],
            histogram=None,
        )
    ndv = float(len(np.unique(data)))
    if scale > 1.0:
        # First-order unique-count scale-up; exact enough for the cost
        # model (the paper's point is *correlations*, not NDV accuracy).
        ndv = min(ndv * scale, float(len(data)) * scale)
    histogram = EquiDepthHistogram.build(
        data, n_buckets=n_buckets, integral=integral
    )
    if scale > 1.0:
        histogram = histogram.scaled(scale)
    return dict(
        n_distinct=ndv,
        min_value=float(data.min()),
        max_value=float(data.max()),
        row_count=float(len(data)) * scale,
        frequent_values=[
            (v, c * scale) for v, c in top_frequent_values(data, n_frequent)
        ],
        histogram=histogram,
    )


def _column_statistics(
    table: Table,
    column: str,
    rows: Optional[np.ndarray],
    scale: float,
    now: int,
    n_buckets: int,
    n_frequent: int,
) -> ColumnStatistics:
    dtype = table.schema.column(column).dtype
    data = table.column_data(column)
    if rows is not None:
        data = data[rows]
    raw = column_stats_raw(
        data,
        integral=dtype is not DataType.FLOAT,
        scale=scale,
        n_buckets=n_buckets,
        n_frequent=n_frequent,
    )
    return ColumnStatistics(column=column, dtype=dtype, collected_at=now, **raw)


def collect_group_statistics(
    database: Database,
    catalog: SystemCatalog,
    table_name: str,
    columns: Sequence[str],
    now: int = 0,
    bins_per_dim: int = 8,
) -> ColumnGroupStatistics:
    """Build an exact multi-column grid histogram (workload statistics)."""
    table = database.table(table_name)
    group = canonical_group(columns)
    data = [table.column_data(c).astype(np.float64) for c in group]
    domain = Region(tuple(column_domain(table, c) for c in group))
    integral = [
        table.schema.column(c).dtype is not DataType.FLOAT for c in group
    ]
    histogram = AdaptiveGridHistogram.from_data(
        data,
        domain,
        bins_per_dim=bins_per_dim,
        now=now,
        integral_dims=integral,
    )
    stats = ColumnGroupStatistics(
        table=table.name, columns=group, histogram=histogram, collected_at=now
    )
    catalog.set_group_stats(stats)
    return stats


def collect_workload_statistics(
    database: Database,
    catalog: SystemCatalog,
    groups: Iterable[Tuple[str, Sequence[str]]],
    now: int = 0,
    bins_per_dim: int = 8,
) -> int:
    """Collect group statistics for every (table, columns) pair.

    This reproduces experiment setting 3 of Section 4.2: "general
    statistics ... in addition to workload statistics (i.e., all column
    groups that occur in all the queries)". Returns the number of group
    histograms built; single-column groups are skipped (RUNSTATS already
    covers them).
    """
    built = 0
    seen = set()
    for table_name, columns in groups:
        key = (table_name.lower(), canonical_group(columns))
        if len(key[1]) < 2 or key in seen:
            continue
        seen.add(key)
        collect_group_statistics(
            database, catalog, table_name, list(columns), now, bins_per_dim
        )
        built += 1
    return built
