"""Persistent forkserver worker pool for sharded scan kernels.

Design notes:

* Workers are spawned from a ``forkserver`` context (falling back to
  ``spawn`` where forkserver is unavailable): children never inherit the
  engine's threads, locks or live stores — a task carries a kernel name
  from :data:`~repro.executor.parallel.kernels.KERNELS`, a
  :class:`~repro.storage.shm.TablePayload` naming one table
  generation's column segments, and plain kwargs. Each worker keeps its
  attachments across tasks (:class:`~repro.storage.shm.WorkerAttachments`),
  so a generation already seen costs no attach.
* Each worker owns a private task queue and result queue. A SIGKILLed
  worker can therefore corrupt at most its own channels: the parent
  detects the death via ``Process.is_alive()`` while collecting results
  — or via a torn message (deserialization error) left mid-``put`` on
  the result queue — respawns the worker with fresh queues, and resends
  exactly the tasks that were assigned to it (bounded by
  ``max_attempts`` per task).
* Task ids are globally unique, so results that straggle in from an
  abandoned run (after a :class:`WorkerError`) are recognized and
  dropped instead of being matched to a later run's tasks.
"""

from __future__ import annotations

import atexit
import contextlib
import importlib.machinery
import multiprocessing as mp
import queue as queue_mod
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ...errors import ExecutionError
from ...storage.shm import TablePayload, WorkerAttachments
from .kernels import KERNELS


class WorkerError(ExecutionError):
    """A kernel raised inside a worker (the caller falls back in-process)."""


class PoolUnavailable(ExecutionError):
    """The pool cannot make progress (spawn failure, repeated deaths)."""


#: (task_id, kernel_name, payload, kwargs) on the task queue; payload is
#: one TablePayload or None; (task_id, ok, result | error_text) comes
#: back on the result queue.
Task = Tuple[str, Optional[TablePayload], dict]


def _worker_main(task_q, result_q) -> None:
    attachments = WorkerAttachments()
    while True:
        item = task_q.get()
        if item is None:
            return
        task_id, kernel, payload, kwargs = item
        try:
            # No local keeps the arrays past the task, so the next
            # payload can unmap the segments it no longer lists.
            result_q.put((task_id, True, KERNELS[kernel](
                {} if payload is None else attachments.arrays(payload),
                **kwargs,
            )))
        except BaseException as exc:  # report, keep serving
            try:
                result_q.put(
                    (task_id, False, f"{type(exc).__name__}: {exc}")
                )
            except Exception:
                return


@contextlib.contextmanager
def _suppress_main_reimport():
    """Keep spawn preparation from re-running the parent's ``__main__``.

    forkserver/spawn children re-execute the parent's main module when it
    has a file path but no import spec — which crashes on phantom paths
    (``python - <<EOF`` heredocs) and re-runs top-level code in scripts
    without a ``__main__`` guard. Workers never need anything from the
    main module (kernels live in :mod:`repro`), so a dummy spec is set
    while the child's preparation data is captured, making the fixup a
    no-op, then restored.
    """
    main = sys.modules.get("__main__")
    if main is None or getattr(main, "__spec__", None) is not None:
        yield
        return
    main.__spec__ = importlib.machinery.ModuleSpec("__main__", None)
    try:
        yield
    finally:
        main.__spec__ = None


class WorkerPool:
    """A fixed-width pool with crash detection and automatic respawn."""

    def __init__(self, workers: int, task_timeout: float = 120.0):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.task_timeout = task_timeout
        try:
            self._ctx = mp.get_context("forkserver")
        except ValueError:  # a platform without forkserver
            self._ctx = mp.get_context("spawn")
        self._procs: List[Optional[mp.process.BaseProcess]] = [None] * workers
        self._task_qs: List[Any] = [None] * workers
        self._result_qs: List[Any] = [None] * workers
        self._started = False
        self._closed = False
        self._task_seq = 0
        self.respawns = 0  # workers respawned after a crash
        self.tasks_run = 0
        atexit.register(self.close)

    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> None:
        """Spawn the workers (lazy; run_tasks calls this on first use)."""
        if self._started or self._closed:
            return
        for i in range(self.workers):
            self._spawn(i)
        self._started = True

    def _spawn(self, i: int) -> None:
        task_q = self._ctx.Queue()
        result_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(task_q, result_q),
            daemon=True,
            name=f"repro-scan-worker-{i}",
        )
        with _suppress_main_reimport():
            proc.start()
        self._procs[i] = proc
        self._task_qs[i] = task_q
        self._result_qs[i] = result_q

    def _discard_worker(self, i: int) -> None:
        """Tear down worker ``i`` and its channels (before a respawn)."""
        proc = self._procs[i]
        if proc is not None and proc.is_alive():
            try:
                proc.terminate()
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
            except Exception:
                pass
        for q in (self._task_qs[i], self._result_qs[i]):
            if q is None:
                continue
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass

    def pids(self) -> List[int]:
        return [p.pid for p in self._procs if p is not None and p.pid]

    def run_tasks(
        self, tasks: Sequence[Task], max_attempts: int = 3
    ) -> List[Any]:
        """Run tasks across the pool; results align with the input order.

        Raises :class:`WorkerError` when a kernel fails inside a worker
        and :class:`PoolUnavailable` when the pool itself cannot make
        progress; both leave the pool serviceable for the next call.
        """
        if self._closed:
            raise PoolUnavailable("worker pool is closed")
        try:
            self.start()
        except Exception as exc:
            raise PoolUnavailable(f"cannot start workers: {exc}") from exc
        n = len(tasks)
        if n == 0:
            return []
        base = self._task_seq
        self._task_seq += n
        index_of = {base + i: i for i in range(n)}
        results: Dict[int, Any] = {}
        assigned: List[Set[int]] = [set() for _ in range(self.workers)]
        attempts = [0] * n

        def dispatch(task_id: int, worker: int) -> None:
            index = index_of[task_id]
            attempts[index] += 1
            if attempts[index] > max_attempts:
                raise PoolUnavailable(
                    f"task retried {max_attempts} times across worker crashes"
                )
            kernel, payload, kwargs = tasks[index]
            assigned[worker].add(task_id)
            self._task_qs[worker].put((task_id, kernel, payload, kwargs))

        def recycle(w: int) -> None:
            # Crash (or torn channel): fresh worker + fresh queues,
            # resend this worker's unfinished tasks.
            self.respawns += 1
            pending = sorted(assigned[w])
            assigned[w] = set()
            self._discard_worker(w)
            self._spawn(w)
            for tid in pending:
                if tid not in results:
                    dispatch(tid, w)

        for i in range(n):
            dispatch(base + i, i % self.workers)

        deadline = time.monotonic() + self.task_timeout
        while len(results) < n:
            progressed = False
            for w in range(self.workers):
                if not assigned[w]:
                    continue
                try:
                    task_id, ok, value = self._result_qs[w].get(timeout=0.02)
                except queue_mod.Empty:
                    proc = self._procs[w]
                    if proc is not None and not proc.is_alive():
                        recycle(w)
                        progressed = True
                    continue
                except Exception:
                    # A worker killed mid-put leaves a torn message that
                    # fails to deserialize (EOFError/UnpicklingError);
                    # the channel is unusable either way.
                    recycle(w)
                    progressed = True
                    continue
                assigned[w].discard(task_id)
                if task_id not in index_of:
                    continue  # straggler from an abandoned run
                if not ok:
                    raise WorkerError(value)
                if task_id not in results:
                    results[task_id] = value
                progressed = True
            if progressed:
                deadline = time.monotonic() + self.task_timeout
            elif time.monotonic() > deadline:
                raise PoolUnavailable(
                    f"pool made no progress for {self.task_timeout:.0f}s"
                )
        self.tasks_run += n
        return [results[base + i] for i in range(n)]

    def close(self) -> None:
        """Stop the workers; idempotent, also runs at interpreter exit."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        for q in self._task_qs:
            try:
                q.put_nowait(None)
            except Exception:
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        for q in list(self._task_qs) + list(self._result_qs):
            if q is None:
                continue
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
