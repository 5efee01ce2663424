"""Asyncio network server: many connections, one engine.

The server owns one :class:`~repro.engine.engine.Engine` and a thread
pool ``max_inflight`` threads wide. Each accepted connection gets its own
:class:`~repro.engine.session.Session`; statements run in the pool via
``run_in_executor`` so the engine's two-level lock hierarchy (database
intent + per-table locks) and per-session UDI-shard semantics are
exactly those of in-process clients. The event loop itself never
executes SQL — it only frames, schedules and replies.

Admission control and fairness:

* at most one statement per connection executes at a time (a session is
  single-threaded by contract), and at most ``per_client_inflight``
  statements per connection may be admitted (running + queued) — beyond
  that the request is answered immediately with a retryable ``busy``
  frame instead of being queued without bound;
* admitted statements wait in per-connection FIFO queues that a
  round-robin scheduler drains, so a connection that floods its own
  queue cannot starve the others;
* a global admission limit (``max_inflight``) caps how many statements
  occupy executor threads at once — the "admission semaphore", enforced
  on the event-loop thread where all scheduler state lives.

Results: every SELECT result, whatever its row count (0 included),
streams as binary columnar frames encoded straight from the result's
column vectors (see :mod:`repro.server.frames`), so the server never
decodes row tuples. DML and DDL replies are one JSON ``result`` frame.

Cancellation: a ``cancel`` frame dequeues the target request if it has
not started executing, and otherwise interrupts a *running* statement by
setting its :class:`~repro.cancel.CancelToken`; the engine observes the
token at morsel/checkpoint boundaries and the statement's reply becomes
a ``CANCELLED`` error frame, with the session left reusable.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Set

from ..cancel import CancelToken
from ..errors import ConfigError, ReproError
from .frames import DEFAULT_CHUNK_ROWS, build_stream_frames
from .protocol import (
    PROTOCOL_VERSION,
    CancelledStatementError,
    ProtocolError,
    encode_binary_frame,
    encode_frame,
    error_frame,
    read_frame,
)

HANDSHAKE_TIMEOUT = 10.0
_DRAIN_POLL = 0.05


class _Connection:
    """Per-connection server state (event-loop thread only)."""

    __slots__ = (
        "conn_id",
        "writer",
        "session",
        "queue",
        "running",
        "closed",
        "write_lock",
        "busy_rejections",
        "cancel_tokens",
    )

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter, session):
        self.conn_id = conn_id
        self.writer = writer
        self.session = session
        self.queue: Deque[Dict] = deque()
        self.running = False
        self.closed = False
        self.write_lock = asyncio.Lock()
        self.busy_rejections = 0
        # request id -> CancelToken of the statement currently executing
        # (registered on the event-loop thread before dispatch, removed in
        # the request's finally, so `cancel` can interrupt it mid-flight).
        self.cancel_tokens: Dict[object, CancelToken] = {}

    @property
    def inflight(self) -> int:
        return len(self.queue) + (1 if self.running else 0)

    async def send(self, frame: Dict) -> None:
        await self.send_encoded(encode_frame(frame))

    async def send_encoded(self, data: bytes) -> None:
        await self.send_encoded_many([data])

    async def send_encoded_many(self, datas: List[bytes]) -> None:
        """Write a frame sequence contiguously (one lock scope), so a
        streamed result is never interleaved with other replies."""
        if self.closed:
            return
        async with self.write_lock:
            if self.closed:
                return
            try:
                for data in datas:
                    self.writer.write(data)
                    await self.writer.drain()
            except (ConnectionError, RuntimeError):
                self.closed = True


class ReproServer:
    """A TCP front-end for one engine (see module docstring)."""

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 8,
        per_client_inflight: int = 4,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        if max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if per_client_inflight < 1:
            raise ConfigError(
                f"per_client_inflight must be >= 1, got {per_client_inflight}"
            )
        if chunk_rows < 1:
            raise ConfigError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.engine = engine
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.per_client_inflight = per_client_inflight
        self.chunk_rows = chunk_rows
        self.busy_rejections = 0
        self.statements_served = 0
        self.streamed_results = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._conns: Set[_Connection] = set()
        self._rr: Deque[_Connection] = deque()
        self._inflight = 0
        self._next_conn_id = 0
        self._closing = False
        # start_in_thread machinery
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (port 0 picks an ephemeral port)."""
        # Only admitted statements run on the pool, and admission stops
        # at max_inflight: a wider pool idles, a narrower one queues
        # statements that were already admitted.
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="repro-server"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ReproError("server not started")
        await self._server.serve_forever()

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Stop accepting, drain in-flight statements, close connections."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        waited = 0.0
        while self._inflight > 0 and waited < drain_timeout:
            await asyncio.sleep(_DRAIN_POLL)
            waited += _DRAIN_POLL
        for conn in list(self._conns):
            conn.closed = True
            conn.session.close()
            with contextlib.suppress(Exception):
                conn.writer.close()
        self._conns.clear()
        self._rr.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Background-thread harness (tests, benchmarks, embedding)
    # ------------------------------------------------------------------
    def start_in_thread(self, timeout: float = 10.0) -> "ReproServer":
        """Run the server on a dedicated event-loop thread.

        Blocks until the listening socket is bound (so ``self.port`` is
        final), then returns. Pair with :meth:`stop_from_thread`.
        """
        started = threading.Event()
        failure: list = []

        async def main() -> None:
            try:
                await self.start()
            except Exception as exc:  # surface bind errors to the caller
                failure.append(exc)
                started.set()
                return
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            started.set()
            await self._stop_event.wait()
            await self.stop()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()),
            name="repro-server-loop",
            daemon=True,
        )
        self._thread.start()
        if not started.wait(timeout):
            raise ReproError("server failed to start in time")
        if failure:
            raise failure[0]
        return self

    def stop_from_thread(self, timeout: float = 15.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout)

    # ------------------------------------------------------------------
    # Connection handling (event-loop thread)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closing:
            writer.close()
            return
        try:
            hello = await asyncio.wait_for(
                read_frame(reader), timeout=HANDSHAKE_TIMEOUT
            )
        except (ProtocolError, asyncio.TimeoutError, ConnectionError):
            writer.close()
            return
        self._next_conn_id += 1
        conn = _Connection(self._next_conn_id, writer, self.engine.session())
        if (
            hello is None
            or hello.get("type") != "hello"
            or hello.get("version") != PROTOCOL_VERSION
        ):
            got = None if hello is None else hello.get("version")
            await conn.send(
                error_frame(
                    None if hello is None else hello.get("id"),
                    ProtocolError(
                        f"handshake must be a version-{PROTOCOL_VERSION} "
                        f"hello frame (got {got!r})"
                    ),
                )
            )
            conn.closed = True
            conn.session.close()
            writer.close()
            return
        from .. import __version__

        self._conns.add(conn)
        self._rr.append(conn)
        await conn.send(
            {
                "type": "hello_ok",
                "version": PROTOCOL_VERSION,
                "server": f"repro/{__version__}",
                "per_client_inflight": self.per_client_inflight,
            }
        )
        try:
            while not self._closing:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as exc:
                    await conn.send(error_frame(None, exc))
                    break
                except ConnectionError:
                    break
                if frame is None:
                    break
                await self._handle_frame(conn, frame)
        finally:
            conn.closed = True
            conn.queue.clear()
            # A disconnect mid-statement cancels whatever this connection
            # was running: the worker thread unwinds at the next morsel
            # boundary and its locks release instead of the statement
            # burning to completion for a reader that is gone.
            for token in conn.cancel_tokens.values():
                token.cancel()
            self._conns.discard(conn)
            with contextlib.suppress(ValueError):
                self._rr.remove(conn)
            conn.session.close()
            with contextlib.suppress(Exception):
                writer.close()
            self._schedule_ready()

    async def _handle_frame(self, conn: _Connection, frame: Dict) -> None:
        ftype = frame["type"]
        rid = frame.get("id")
        if ftype == "ping":
            await conn.send({"type": "pong", "id": rid})
        elif ftype == "stats":
            stats = self.engine.stats_snapshot()
            stats["server"] = self.server_stats()
            await conn.send(
                {"type": "stats_result", "id": rid, "stats": stats}
            )
        elif ftype == "cancel":
            await self._handle_cancel(conn, frame)
        elif ftype in ("query", "explain"):
            if not isinstance(frame.get("sql"), str):
                await conn.send(
                    error_frame(
                        rid, ProtocolError(f"{ftype} frame without 'sql'")
                    )
                )
                return
            inflight = conn.inflight
            if inflight >= self.per_client_inflight:
                conn.busy_rejections += 1
                self.busy_rejections += 1
                await conn.send(
                    {
                        "type": "busy",
                        "id": rid,
                        "retryable": True,
                        "inflight": inflight,
                        "cap": self.per_client_inflight,
                    }
                )
                return
            conn.queue.append(frame)
            self._schedule_ready()
        else:
            await conn.send(
                error_frame(
                    rid, ProtocolError(f"unknown frame type {ftype!r}")
                )
            )

    async def _handle_cancel(self, conn: _Connection, frame: Dict) -> None:
        target = frame.get("target")
        found = None
        for queued in conn.queue:
            if queued.get("id") == target:
                found = queued
                break
        interrupted = False
        if found is not None:
            conn.queue.remove(found)
            await conn.send(
                error_frame(
                    target,
                    CancelledStatementError("cancelled before execution"),
                )
            )
        else:
            # Not queued: interrupt it if it is executing right now. The
            # engine raises StatementCancelledError at the next morsel or
            # checkpoint boundary; the statement's own reply becomes a
            # CANCELLED error frame from _run_request.
            token = conn.cancel_tokens.get(target)
            if token is not None:
                token.cancel()
                interrupted = True
        await conn.send(
            {
                "type": "cancel_result",
                "id": frame.get("id"),
                "target": target,
                "cancelled": found is not None or interrupted,
                "interrupted": interrupted,
            }
        )

    # ------------------------------------------------------------------
    # Round-robin scheduler (event-loop thread)
    # ------------------------------------------------------------------
    def _schedule_ready(self) -> None:
        """Admit queued requests: round-robin over connections, one
        statement per connection, ``max_inflight`` overall."""
        if self._closing:
            return
        progress = True
        while progress and self._inflight < self.max_inflight:
            progress = False
            for _ in range(len(self._rr)):
                if self._inflight >= self.max_inflight:
                    return
                conn = self._rr[0]
                self._rr.rotate(-1)
                if conn.closed or conn.running or not conn.queue:
                    continue
                request = conn.queue.popleft()
                conn.running = True
                self._inflight += 1
                asyncio.get_running_loop().create_task(
                    self._run_request(conn, request)
                )
                progress = True

    async def _run_request(self, conn: _Connection, frame: Dict) -> None:
        loop = asyncio.get_running_loop()
        rid = frame.get("id")
        sql = frame["sql"]
        token: Optional[CancelToken] = None
        if frame["type"] == "query":
            # Registered on the event-loop thread *before* dispatch so a
            # cancel frame arriving at any point during execution finds it.
            token = CancelToken()
            conn.cancel_tokens[rid] = token

        def work() -> List[bytes]:
            # Execute AND serialize on the worker thread: results can be
            # large, and encoding them on the event loop would stall
            # every other connection's framing.
            if frame["type"] == "explain":
                return [
                    encode_frame(
                        {
                            "type": "plan",
                            "id": rid,
                            "text": conn.session.explain(sql),
                        }
                    )
                ]
            result = conn.session.execute(sql, cancel=token)
            if result.statement_type != "select":
                return [encode_frame(_result_frame(rid, result))]
            # Encoded from the column vectors; ``result.rows`` is never
            # built on the server.
            header, payloads, end = build_stream_frames(
                rid, result, self.chunk_rows
            )
            return (
                [encode_frame(header)]
                + [encode_binary_frame(p) for p in payloads]
                + [encode_frame(end)]
            )

        try:
            datas = await loop.run_in_executor(self._pool, work)
            self.statements_served += 1
            if len(datas) > 1:  # a stream: header and end at least
                self.streamed_results += 1
        except Exception as exc:
            datas = [encode_frame(error_frame(rid, exc))]
        finally:
            if token is not None:
                conn.cancel_tokens.pop(rid, None)
            conn.running = False
            self._inflight -= 1
            self._schedule_ready()
        await conn.send_encoded_many(datas)

    def server_stats(self) -> Dict[str, object]:
        return {
            "connections": len(self._conns),
            "inflight": self._inflight,
            "statements_served": self.statements_served,
            "streamed_results": self.streamed_results,
            "busy_rejections": self.busy_rejections,
            "max_inflight": self.max_inflight,
            "per_client_inflight": self.per_client_inflight,
        }


def _result_frame(request_id, result) -> Dict:
    """The reply to a DML or DDL statement (SELECTs stream)."""
    frame = {
        "type": "result",
        "id": request_id,
        "statement_type": result.statement_type,
        "affected_rows": result.affected_rows,
        "timings": dict(result.timings),
    }
    snapshots = getattr(result, "snapshots", None)
    if snapshots:
        # MVCC provenance: {table: [epoch, stamp]} — the stamp replays
        # this statement's exact view via ``SELECT ... AS OF <stamp>``.
        frame["snapshots"] = {
            name: list(pair) for name, pair in snapshots.items()
        }
    return frame
