"""Shared-memory column export for process-parallel scans.

The parent engine copies column generations into
``multiprocessing.shared_memory`` segments; worker processes attach by
name and wrap the buffers in zero-copy numpy views. A segment belongs
to one immutable :class:`~repro.storage.snapshot.ColumnSnapshot`, never
to a table name or epoch, so:

* the parent copies a column generation once, chunk by chunk, and every
  table generation sharing that column object shares its segment: an
  UPDATE of one column re-exports that column, not the table, and MVCC
  readers pinned to different generations each dispatch against their
  own generation's segments;
* when a column generation is collected, a ``weakref.finalize`` queues
  its segment and the registry's next export (or its close) unlinks it,
  so what is exported is bounded by what is retained or pinned, with no
  LRU and no DROP TABLE hook; a DROP + CREATE under the same name makes
  new column objects, hence new segment names, so no identity check is
  needed;
* workers cache their attachments per segment name and, on each
  payload, detach the table's segments it no longer lists
  (:class:`WorkerAttachments`).

An in-flight scan always sees the exact rows its statement read: the
caller holds the generation it exported (a pinned snapshot, or a live
table's current one under its write lock), so its segments outlive the
dispatch, and workers read the copy, never the live buffers.

Lifetime (Linux): segments live under ``/dev/shm`` with the ``rjits``
prefix. The parent unmaps a segment right after the copy and keeps only
its name for the unlink; an unlinked segment's memory survives until the
last worker unmaps it, so an unlink never races a worker already
attached. Workers attach with ``multiprocessing.resource_tracker``
registration suppressed: on 3.11 the tracker counts attaches as
ownership, and since forkserver children share the parent's tracker
process, an attach would first shadow and then (on unregister) erase the
parent's own registration of the segment it still owns.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import os
import secrets
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Set, Tuple

import numpy as np

from ..errors import StorageError
from .snapshot import ColumnSnapshot, TableSnapshot

#: Prefix of every segment name this module creates (leak checks key on it).
SHM_PREFIX = "rjits"

# Segment names must be unique across every registry in this process
# (several engines can coexist in one interpreter) and must not collide
# with stale /dev/shm files left by a crashed run that recycled our pid,
# so they carry a per-process random token plus a process-global counter.
_NAME_TOKEN = secrets.token_hex(4)
_SEG_SEQ = itertools.count(1)


class ShmError(StorageError):
    """Shared-memory export/attach failure (callers fall back in-process)."""


@dataclass(frozen=True)
class ColumnSegment:
    """Picklable descriptor of one exported column generation."""

    column: str  # lower-case column name
    shm_name: str
    dtype: str  # numpy dtype string
    length: int


@dataclass(frozen=True)
class TablePayload:
    """Picklable descriptor of one table generation's column segments."""

    table: str
    n_rows: int
    segments: Tuple[ColumnSegment, ...]


def list_segments() -> List[str]:
    """Names of live segments this process created in ``/dev/shm`` (leak
    checks). Segments carry their creator's pid, so a concurrent
    process's segments are never listed."""
    prefix = f"{SHM_PREFIX}{os.getpid()}x"
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if name.startswith(prefix)
        )
    except OSError:  # non-Linux hosts: no listing, leak checks are no-ops
        return []


@contextlib.contextmanager
def _no_tracker_registration():
    """Suppress resource-tracker registration while attaching.

    Attaching registers the segment as if we owned it; the parent is the
    owner and does its own unlink. Worse, forkserver children share the
    parent's tracker process, so a worker-side register/unregister pair
    would strip the parent's registration out from under it. (Python
    3.13's ``track=False`` makes this explicit; 3.11 needs the patch.)
    """
    original = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        yield
    finally:
        resource_tracker.register = original


class ShmRegistry:
    """Parent-side segments, one per exported column generation.

    The map is weak in its :class:`ColumnSnapshot` keys: when a
    generation is collected, its entry goes and a finalizer queues its
    segment, which the next export (or :meth:`close`) unlinks.
    """

    def __init__(self) -> None:
        # ColumnSnapshot -> (its segment, the finalizer that queues it)
        self._segments: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )
        # Segments of collected generations, still to unlink. Most
        # generations are collected inside a write's publish (trimmed out
        # of the retention window, under the table's snapshot lock), and
        # an unlink frees the segment's pages, about 0.3 ms per 5 MB, so
        # the finalizer only appends here (no lock) and the unlink runs
        # on the next export instead of on the write path.
        self._freed: List[shared_memory.SharedMemory] = []
        self._lock = threading.Lock()
        self._closed = False
        self.exports = 0  # column segments created, for stats_snapshot
        atexit.register(self.close)

    def export(self, table) -> TablePayload:
        """The segments of ``table``'s column generations, copying the
        ones not exported yet.

        ``table`` is a pinned TableSnapshot, or a live Table whose
        current generation is its content (DML targeting under the
        table's write lock).
        """
        if not isinstance(table, TableSnapshot):
            table = table.current_snapshot
        name = table.name.lower()
        with self._lock:
            if self._closed:
                raise ShmError("shared-memory registry is closed")
            self._unlink_freed()
            segments = tuple(
                self._segment(name, column.lower(), table.column(column))
                for column in table.schema.column_names()
            )
        return TablePayload(
            table=name, n_rows=table.row_count, segments=segments
        )

    def _segment(
        self, table: str, column: str, snapshot: ColumnSnapshot
    ) -> ColumnSegment:
        entry = self._segments.get(snapshot)
        if entry is not None:
            return entry[0]
        dtype = snapshot.tail.dtype
        shm_name = (
            f"{SHM_PREFIX}{os.getpid()}x{_NAME_TOKEN}x{next(_SEG_SEQ)}"
        )
        try:
            shm = shared_memory.SharedMemory(
                create=True,
                name=shm_name,
                size=max(1, snapshot.size * dtype.itemsize),
            )
        except OSError as exc:
            raise ShmError(
                f"exporting {table}.{column} failed: {exc}"
            ) from exc
        try:
            if snapshot.chunks:
                # The output view is a temporary: none is left to keep
                # the buffer from unmapping.
                np.concatenate(
                    snapshot.chunks,
                    out=np.ndarray(
                        (snapshot.size,), dtype=dtype, buffer=shm.buf
                    ),
                )
        finally:
            shm.close()
        segment = ColumnSegment(
            column=column, shm_name=shm_name, dtype=dtype.str,
            length=snapshot.size,
        )
        finalizer = weakref.finalize(snapshot, self._freed.append, shm)
        finalizer.atexit = False  # close() runs at exit and unlinks all
        self._segments[snapshot] = (segment, finalizer)
        self.exports += 1
        return segment

    def _unlink_freed(self) -> None:
        while self._freed:
            with contextlib.suppress(FileNotFoundError):
                self._freed.pop().unlink()  # also leaves the tracker

    def close(self) -> None:
        """Unlink every segment; idempotent, also runs at interpreter
        exit."""
        with self._lock:
            self._closed = True
            entries = list(self._segments.values())
            self._segments.clear()
            for _, finalizer in entries:
                finalizer()
            self._unlink_freed()


class WorkerAttachments:
    """Worker-side attachments, one per segment name. A payload detaches
    the segments of its table that it no longer lists, so a worker holds
    at most one payload's worth per table."""

    def __init__(self) -> None:
        self._attached: Dict[
            str, Tuple[shared_memory.SharedMemory, np.ndarray]
        ] = {}
        self._by_table: Dict[str, Set[str]] = {}

    def arrays(self, payload: TablePayload) -> Dict[str, np.ndarray]:
        names = {segment.shm_name for segment in payload.segments}
        for stale in self._by_table.get(payload.table, set()) - names:
            self._detach(stale)
        self._by_table[payload.table] = names
        arrays: Dict[str, np.ndarray] = {}
        for segment in payload.segments:
            entry = self._attached.get(segment.shm_name)
            if entry is None:
                try:
                    with _no_tracker_registration():
                        shm = shared_memory.SharedMemory(name=segment.shm_name)
                except OSError as exc:
                    raise ShmError(
                        f"attaching to {payload.table}.{segment.column} "
                        f"failed: {exc}"
                    ) from exc
                entry = (
                    shm,
                    np.ndarray(
                        (segment.length,),
                        dtype=np.dtype(segment.dtype),
                        buffer=shm.buf,
                    ),
                )
                self._attached[segment.shm_name] = entry
            arrays[segment.column] = entry[1]
        return arrays

    def _detach(self, shm_name: str) -> None:
        if shm_name not in self._attached:
            return
        shm = self._attached.pop(shm_name)[0]  # drops our view with it
        try:
            shm.close()
        except BufferError:
            pass  # a view still alive: the mapping goes with the object

    def close(self) -> None:
        for shm_name in list(self._attached):
            self._detach(shm_name)
        self._by_table = {}
