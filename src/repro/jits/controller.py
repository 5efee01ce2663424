"""The JITS controller: wires analysis, sensitivity, collection, archive,
history and migration into the compile/execute pipeline.

Lifecycle per query (paper Figure 1):

1. ``before_optimize`` — Algorithm 1 (query analysis) over the QGM blocks,
   Algorithm 2/3/4 (sensitivity analysis), then sampling-based collection;
   returns the :class:`QSSProfile` of exact selectivities the optimizer
   consumes, plus a report of what was done.
2. ``after_execute`` — consumes LEO-style feedback records and updates the
   StatHistory (the raw material for the next sensitivity analysis).
3. ``tick`` — periodically migrates archive histograms into the catalog.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..catalog import SystemCatalog
from ..errors import ConfigError
from ..executor.feedback import FeedbackRecord
from ..optimizer.context import QSSProfile
from ..sql.qgm import QueryBlock
from ..storage import DEFAULT_SAMPLE_SIZE, Database
from .analysis import TableCandidates, analyze_query, merge_by_table
from .archive import QSSArchive
from .collection import CollectionReport, StatisticsCollector
from .history import StatHistory
from .migration import migrate_archive_to_catalog
from .residuals import ResidualStatisticsStore
from .samplecache import SampleCache
from .sensitivity import SensitivityAnalyzer, TableDecision


@dataclass
class JITSConfig:
    """Tuning knobs of the JITS subsystem."""

    enabled: bool = True
    s_max: float = 0.5  # sensitivity threshold (paper Section 4.3)
    sample_size: int = DEFAULT_SAMPLE_SIZE
    always_collect: bool = False  # bypass sensitivity analysis (Table 3 mode)
    migration_interval: int = 50  # statements between migrations; 0 = never
    materialize_enabled: bool = True  # ablation knob: archive on/off
    use_history_score: bool = True  # ablation knob: s1 term on/off

    def __post_init__(self) -> None:
        if self.sample_size <= 0:
            raise ConfigError(
                f"jits sample_size must be positive, got {self.sample_size}"
            )
        if not 0.0 <= self.s_max <= 1.0:
            raise ConfigError(f"s_max must be in [0, 1], got {self.s_max}")
        if self.migration_interval < 0:
            raise ConfigError(
                "migration_interval must be >= 0 (0 disables migration), "
                f"got {self.migration_interval}"
            )


@dataclass
class CompilationReport:
    """What JITS did while compiling one query."""

    candidates: List[TableCandidates] = field(default_factory=list)
    decisions: Dict[str, TableDecision] = field(default_factory=dict)
    collection: CollectionReport = field(default_factory=CollectionReport)
    # True when the engine served this query from its plan cache and the
    # whole JITS compile-time pipeline was skipped.
    plan_cache_hit: bool = False

    @property
    def tables_collected(self) -> List[str]:
        return self.collection.tables_sampled


class JustInTimeStatistics:
    """One JITS instance per engine."""

    def __init__(
        self,
        database: Database,
        catalog: SystemCatalog,
        config: Optional[JITSConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.database = database
        self.catalog = catalog
        self.config = config or JITSConfig()
        self.history = StatHistory()
        self.archive = QSSArchive(database)
        self.residual_store = ResidualStatisticsStore()
        # Empty until JITS first collects; holds one sample per live table.
        self.sample_cache = SampleCache(
            self.config.sample_size,
            rng if rng is not None else np.random.default_rng(0),
        )
        self.last_collection_udi: Dict[str, int] = {}
        self._last_migration = 0
        self.total_collections = 0
        self.total_migrations = 0
        # Guards the shared counters and the migration heartbeat: two
        # statements ticking across the interval boundary must not both
        # run the migration pass.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Compile-time hook
    # ------------------------------------------------------------------
    def before_optimize(
        self, root_block: QueryBlock, now: int
    ) -> Tuple[Optional[QSSProfile], CompilationReport]:
        report = CompilationReport()
        if not self.config.enabled:
            return None, report
        if self.config.always_collect or self.config.s_max < 1.0:
            # "Table statistics (e.g., number of rows) ... are needed for
            # every table involved in the query" (Section 3.2). Refreshing
            # the cardinality is O(1) against the storage header, so JITS
            # keeps it exact whenever it is allowed to collect at all.
            self._refresh_table_statistics(root_block, now)
        report.candidates = analyze_query(root_block)
        if not report.candidates:
            return None, report
        by_table = merge_by_table(report.candidates)

        if self.config.always_collect:
            report.decisions = {
                table: TableDecision(
                    table=table,
                    collect=True,
                    score=1.0,
                    s1=1.0,
                    s2=1.0,
                    materialize=list(groups),
                )
                for table, groups in by_table.items()
            }
        else:
            analyzer = SensitivityAnalyzer(
                self.database,
                self.catalog,
                self.archive,
                self.history,
                self.config.s_max,
                self.last_collection_udi,
                use_history_score=self.config.use_history_score,
            )
            report.decisions = analyzer.analyze(by_table)
        if not self.config.materialize_enabled:
            for decision in report.decisions.values():
                decision.materialize = []

        residuals_by_table: Dict[str, List] = {}
        for candidate in report.candidates:
            if candidate.residuals:
                bucket = residuals_by_table.setdefault(candidate.table, [])
                bucket.extend(
                    (candidate.alias, expr) for expr in candidate.residuals
                )
        collector = StatisticsCollector(
            self.database, self.archive, self.sample_cache
        )
        profile, report.collection = collector.collect(
            report.decisions,
            by_table,
            now,
            self.last_collection_udi,
            residuals_by_table=residuals_by_table,
            residual_store=self.residual_store,
        )
        with self._lock:
            self.total_collections += len(report.collection.tables_sampled)
        if report.collection.tables_sampled:
            # Table statistics are "needed for every table involved in the
            # query" (Section 3.2); once we are collecting at all, exact
            # cardinalities for the query's base tables are free.
            for block in root_block.all_blocks():
                for table_name in block.base_tables().values():
                    profile.table_cardinalities.setdefault(
                        table_name.lower(),
                        float(self.database.table(table_name).row_count),
                    )
        if profile.n_groups == 0 and not profile.table_cardinalities:
            return None, report
        return profile, report

    def _refresh_table_statistics(self, root_block: QueryBlock, now: int) -> None:
        from ..catalog import TableStatistics

        for block in root_block.all_blocks():
            for table_name in block.base_tables().values():
                table = self.database.table(table_name)
                stats = self.catalog.table_stats(table_name)
                if (
                    stats is None
                    or table.udi_since(stats.udi_snapshot) > 0
                ):
                    self.catalog.set_table_stats(
                        TableStatistics(
                            table=table.name,
                            cardinality=float(table.row_count),
                            collected_at=now,
                            udi_snapshot=table.udi_total,
                        )
                    )

    # ------------------------------------------------------------------
    # Run-time hooks
    # ------------------------------------------------------------------
    def after_execute(self, records: List[FeedbackRecord], now: int) -> None:
        if not self.config.enabled:
            return
        for record in records:
            self.history.record(
                record.table,
                record.group.columns(),
                record.statlist,
                record.errorfactor,
            )

    def tick(self, now: int) -> int:
        """Migration heartbeat; returns histograms migrated this tick."""
        if not self.config.enabled:
            return 0
        # Deferred observations batch up during compilation; the statement
        # boundary is where the single max-entropy pass lands.
        self.archive.recalibrate_dirty()
        interval = self.config.migration_interval
        if interval <= 0:
            return 0
        # Claim the heartbeat under the lock so concurrent statements
        # crossing the interval boundary run exactly one migration pass,
        # but run the pass itself outside it. Migration never needs the
        # engine's data locks: it reads the archive masters under the
        # archive writer lock and publishes new catalog snapshots, so it
        # is safe to run from a reader-path statement.
        with self._lock:
            if now - self._last_migration < interval:
                return 0
            self._last_migration = now
        migrated = migrate_archive_to_catalog(
            self.archive, self.catalog, self.database, now
        )
        with self._lock:
            self.total_migrations += migrated
        return migrated

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def drop_table(self, table_name: str) -> None:
        """Forget every statistic derived from a dropped table. (Its
        sample goes with the table object itself.)"""
        self.archive.drop_table(table_name)
        self.residual_store.drop_table(table_name)
        self.last_collection_udi.pop(table_name.lower(), None)
