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


@dataclass(slots=True)
class EngineConfig:
    """All engine knobs in one place. Slotted, so assigning a name that is
    not a knob raises instead of being silently ignored."""

    jits: JITSConfig = field(default_factory=lambda: JITSConfig(enabled=False))
    seed: int = DEFAULT_SEED
    # Plan cache (the top of the compilation fast path). Off by default:
    # a cached plan skips the whole JITS pipeline, so workloads that study
    # per-query statistics collection should not silently stop collecting.
    plan_cache_enabled: bool = False
    # Process-parallel scans (default off). With scan_workers > 0 the
    # engine keeps a forkserver worker pool attached to shared-memory
    # column exports; predicate scans, DML WHERE targeting, fused
    # aggregates, DISTINCT and RUNSTATS column passes shard across the
    # workers once the scanned row count reaches the pool's threshold
    # (executor/parallel DEFAULT_PARALLEL_THRESHOLD). Any pool/shm
    # failure falls back in-process with a warning.
    scan_workers: int = 0
    # Not knobs: every read runs on pinned MVCC snapshot generations, and
    # the copy-on-write chunk size and retention window are the storage
    # layer's constants (storage/snapshot.py DEFAULT_CHUNK_ROWS /
    # DEFAULT_SNAPSHOT_RETENTION).

    def __post_init__(self) -> None:
        if self.scan_workers < 0:
            raise ConfigError(
                f"scan_workers must be >= 0, got {self.scan_workers}"
            )

    @staticmethod
    def traditional() -> "EngineConfig":
        """A classic optimizer: no JITS."""
        return EngineConfig(jits=JITSConfig(enabled=False))

    @staticmethod
    def with_jits(plan_cache_enabled: bool = False, **jits) -> "EngineConfig":
        """JITS on; ``jits`` are :class:`JITSConfig` fields (its defaults
        apply to the rest)."""
        return EngineConfig(
            jits=JITSConfig(enabled=True, **jits),
            plan_cache_enabled=plan_cache_enabled,
        )
