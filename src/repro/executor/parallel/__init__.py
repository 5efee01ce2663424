"""Process-parallel scan execution over shared-memory columns.

Layers: :mod:`~repro.storage.shm` exports epoch-stamped column segments,
:mod:`.kernels` holds the sharded scan/aggregate/selectivity kernels,
:mod:`.pool` runs them in a persistent forkserver worker pool with crash
detection, and :mod:`.manager` wires the three into the engine with
transparent in-process fallback.
"""

from .kernels import KERNELS
from .manager import DEFAULT_PARALLEL_THRESHOLD, ParallelScanManager
from .pool import PoolUnavailable, WorkerError, WorkerPool

__all__ = [
    "KERNELS",
    "DEFAULT_PARALLEL_THRESHOLD",
    "ParallelScanManager",
    "PoolUnavailable",
    "WorkerError",
    "WorkerPool",
]
