"""Columnar in-memory storage engine.

Public surface: :class:`Database`, :class:`Table`, index classes and the
sampling helpers. Everything above this layer (catalog, optimizer, executor)
talks to tables through these objects.
"""

from .column import Column
from .database import Database
from .dictionary import MISSING_CODE, StringDictionary
from .index import HashIndex, SortedIndex
from .sampling import DEFAULT_SAMPLE_SIZE, fixed_size_sample
from .snapshot import (
    DEFAULT_CHUNK_ROWS,
    DEFAULT_SNAPSHOT_RETENTION,
    ColumnSnapshot,
    TableSnapshot,
)
from .shm import (
    SHM_PREFIX,
    ColumnSegment,
    ShmError,
    ShmRegistry,
    TablePayload,
    WorkerAttachments,
    list_segments,
)
from .table import Table, UDIShard, active_udi_shard, udi_shard_scope

__all__ = [
    "Column",
    "Database",
    "StringDictionary",
    "MISSING_CODE",
    "HashIndex",
    "SortedIndex",
    "Table",
    "TableSnapshot",
    "ColumnSnapshot",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_SNAPSHOT_RETENTION",
    "UDIShard",
    "active_udi_shard",
    "udi_shard_scope",
    "fixed_size_sample",
    "DEFAULT_SAMPLE_SIZE",
    "SHM_PREFIX",
    "ColumnSegment",
    "ShmError",
    "ShmRegistry",
    "TablePayload",
    "WorkerAttachments",
    "list_segments",
]
