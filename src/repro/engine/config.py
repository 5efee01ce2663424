"""Engine configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..jits import JITSConfig
from ..rng import DEFAULT_SEED


class StatsMode(enum.Enum):
    """Initial-statistics settings used in the paper's experiments."""

    NONE = "none"  # no statistics at all (Section 4.2 setting 1)
    GENERAL = "general"  # RUNSTATS basic + distribution (setting 2)
    WORKLOAD = "workload"  # general + all workload column groups (setting 3)


@dataclass
class EngineConfig:
    """All engine knobs in one place."""

    jits: JITSConfig = field(default_factory=lambda: JITSConfig(enabled=False))
    seed: int = DEFAULT_SEED
    # Plan cache (the top of the compilation fast path). Off by default:
    # a cached plan skips the whole JITS pipeline, so workloads that study
    # per-query statistics collection should not silently stop collecting.
    plan_cache_enabled: bool = False
    # Thread-pool width for execute_many()/execute_streams() when the
    # caller does not pass one. 1 keeps those APIs fully sequential.
    default_workers: int = 4
    # Process-parallel scans (default off). With scan_workers > 0 the
    # engine keeps a forkserver worker pool attached to shared-memory
    # column exports; predicate scans, DML WHERE targeting, fused
    # aggregates, DISTINCT and RUNSTATS column passes shard across the
    # workers once the scanned row count reaches parallel_threshold_rows.
    # Any pool/shm failure falls back in-process with a warning.
    scan_workers: int = 0
    parallel_threshold_rows: int = 32768
    # Not knobs: every read runs on pinned MVCC snapshot generations, and
    # the copy-on-write chunk size and retention window are the storage
    # layer's constants (storage/snapshot.py DEFAULT_CHUNK_ROWS /
    # DEFAULT_SNAPSHOT_RETENTION).

    def __post_init__(self) -> None:
        if self.default_workers < 1:
            raise ConfigError(
                f"default_workers must be >= 1, got {self.default_workers}"
            )
        if self.scan_workers < 0:
            raise ConfigError(
                f"scan_workers must be >= 0, got {self.scan_workers}"
            )
        if self.parallel_threshold_rows < 1:
            raise ConfigError(
                "parallel_threshold_rows must be >= 1, "
                f"got {self.parallel_threshold_rows}"
            )

    @staticmethod
    def traditional() -> "EngineConfig":
        """A classic optimizer: no JITS."""
        return EngineConfig(jits=JITSConfig(enabled=False))

    @staticmethod
    def with_jits(
        s_max: float = 0.5,
        sample_size: int = 2000,
        always_collect: bool = False,
        materialize_enabled: bool = True,
        migration_interval: int = 50,
        plan_cache_enabled: bool = False,
    ) -> "EngineConfig":
        return EngineConfig(
            jits=JITSConfig(
                enabled=True,
                s_max=s_max,
                sample_size=sample_size,
                always_collect=always_collect,
                materialize_enabled=materialize_enabled,
                migration_interval=migration_interval,
            ),
            plan_cache_enabled=plan_cache_enabled,
        )
