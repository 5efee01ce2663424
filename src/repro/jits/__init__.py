"""JITS: just-in-time, query-specific statistics (the paper's contribution)."""

from .analysis import TableCandidates, analyze_query, enumerate_groups, merge_by_table
from .archive import ArchiveEntry, QSSArchive
from .collection import CollectionReport, StatisticsCollector
from .controller import CompilationReport, JITSConfig, JustInTimeStatistics
from .history import HistoryEntry, StatHistory, canonical_colgroup
from .migration import migrate_archive_to_catalog
from .residuals import ResidualStatisticsStore, residual_key
from .samplecache import Sample, SampleCache
from .sensitivity import SensitivityAnalyzer, TableDecision, table_stats_epoch

__all__ = [
    "JustInTimeStatistics",
    "JITSConfig",
    "CompilationReport",
    "analyze_query",
    "enumerate_groups",
    "merge_by_table",
    "TableCandidates",
    "SensitivityAnalyzer",
    "TableDecision",
    "StatisticsCollector",
    "CollectionReport",
    "QSSArchive",
    "ArchiveEntry",
    "StatHistory",
    "HistoryEntry",
    "canonical_colgroup",
    "migrate_archive_to_catalog",
    "ResidualStatisticsStore",
    "residual_key",
    "Sample",
    "SampleCache",
    "table_stats_epoch",
]
