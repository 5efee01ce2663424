"""Blocking network client for the repro server.

:class:`Client` mirrors the engine's session surface (``execute`` /
``explain``), so the CLI shell, tests and benchmarks drive a remote
server exactly the way they drive an in-process engine. Every SELECT
result arrives as a columnar stream (a header, binary chunks, an end
frame) and reassembles into row tuples; DML and DDL replies are one JSON
``result`` frame. ``execute``, ``execute_streaming`` and ``iterate`` share
one request loop: the last two expose the stream incrementally, handing
out row batches as chunks decode. Backpressure is first-class: a
``busy`` frame raises :class:`ServerBusyError` unless the caller opted
into bounded retries with jittered exponential backoff.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..types import Value
from .frames import StreamDecoder, peek_request_id
from .protocol import (
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    ProtocolError,
    ServerBusyError,
    encode_frame,
    exception_from_frame,
    read_wire_frame_blocking,
)

#: Longest single backoff sleep between busy retries (seconds).
MAX_BUSY_BACKOFF = 2.0


def _backoff_delay(base: float, attempt: int) -> float:
    """Jittered exponential backoff: uniformly random in (0.5x, 1x] of the
    doubled base, so a thundering herd of retrying clients decorrelates."""
    ceiling = min(base * (2**attempt), MAX_BUSY_BACKOFF)
    return ceiling * (0.5 + 0.5 * random.random())


def _parse_snapshots(frame: Dict) -> Optional[Dict[str, Tuple[int, int]]]:
    """Decode a frame's MVCC snapshot map (JSON lists -> tuples)."""
    raw = frame.get("snapshots")
    if not raw:
        return None
    return {
        str(name): (int(pair[0]), int(pair[1]))
        for name, pair in dict(raw).items()
    }


@dataclass
class RemoteResult:
    """Client-side view of one statement's reply (QueryResult's wire subset)."""

    statement_type: str
    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Value, ...]] = field(default_factory=list)
    affected_rows: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    streamed: bool = False  # a SELECT: arrived as a columnar stream
    # MVCC provenance relayed by the server: {table: (epoch, stamp)} of
    # the snapshot generations this statement observed or published.
    snapshots: Optional[Dict[str, Tuple[int, int]]] = None
    jits_report = None  # parity with QueryResult for shared CLI paths

    @property
    def row_count(self) -> int:
        return len(self.rows) if self.streamed else self.affected_rows

    @property
    def compile_time(self) -> float:
        return self.timings.get("compile", 0.0)

    @property
    def execution_time(self) -> float:
        return self.timings.get("execute", 0.0)

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())


def _finish(exchange, on_batch=None) -> Dict:
    """Drive a :meth:`Client._exchange` to its reply frame, handing each
    decoded row batch to ``on_batch(columns, rows)`` on the way."""
    while True:
        try:
            columns, batch = next(exchange)
        except StopIteration as stop:
            return stop.value
        if on_batch is not None:
            on_batch(columns, batch)


def _remote_result(reply: Dict) -> RemoteResult:
    """The one place a reply frame becomes a :class:`RemoteResult`."""
    decoder: Optional[StreamDecoder] = reply.get("_decoder")
    return RemoteResult(
        statement_type=reply.get("statement_type", "unknown"),
        columns=decoder.columns if decoder is not None else [],
        rows=decoder.rows if decoder is not None else [],
        affected_rows=int(reply.get("affected_rows", 0)),
        timings={
            str(k): float(v) for k, v in dict(reply.get("timings", {})).items()
        },
        streamed=decoder is not None,
        snapshots=_parse_snapshots(reply),
    )


class Client:
    """One blocking connection to a :class:`ReproServer`.

    Not thread-safe (like a session): one client object per thread.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 30.0,
        connect_retries: int = 20,
        retry_delay: float = 0.1,
        max_retries: int = 0,
        busy_backoff: float = 0.05,
    ):
        last_error: Optional[OSError] = None
        self._sock: Optional[socket.socket] = None
        for _ in range(max(1, connect_retries)):
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                break
            except OSError as exc:
                last_error = exc
                time.sleep(retry_delay)
        if self._sock is None:
            raise ProtocolError(
                f"could not connect to {host}:{port}: {last_error}"
            )
        self._sock.settimeout(timeout)
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        self._out_of_order: Dict[object, Dict] = {}
        # request id -> StreamDecoder of a result mid-stream.
        self._streams: Dict[object, StreamDecoder] = {}
        # id of the most recent query/explain request (Ctrl-C cancel hook).
        self.last_request_id = 0
        # Default busy-retry policy; per-call arguments override.
        self.max_retries = max_retries
        self.busy_backoff = busy_backoff
        self.send_raw(
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "client": "repro-client",
            }
        )
        greeting = self.recv_raw()
        if greeting.get("type") == "error":
            raise exception_from_frame(greeting)
        if greeting.get("type") != "hello_ok":
            raise ProtocolError(
                f"unexpected handshake reply {greeting.get('type')!r}"
            )
        self.server_info = greeting

    # ------------------------------------------------------------------
    # Raw frame plumbing (also used by tests to pipeline/flood)
    # ------------------------------------------------------------------
    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def send_raw(self, frame: Dict) -> None:
        if self._sock is None:
            raise ProtocolError("client is closed")
        self._sock.sendall(encode_frame(frame))

    def recv_wire(self) -> Tuple[str, object]:
        """One wire frame: ``("json", dict)`` or ``("binary", bytes)``."""
        try:
            return read_wire_frame_blocking(self._file)
        except socket.timeout as exc:
            raise ProtocolError("timed out waiting for a frame") from exc

    def recv_raw(self) -> Dict:
        kind, frame = self.recv_wire()
        if kind != "json":
            raise ProtocolError("unexpected binary frame")
        return frame

    def _pump(self) -> Optional[Dict]:
        """Read one wire frame and advance protocol state.

        Returns a completed JSON reply (``result_end`` collapses the
        whole stream into a ``result`` frame: the header's fields plus
        the stream's decoder under ``_decoder``) or ``None`` when the
        frame only advanced an in-flight stream.
        """
        kind, payload = self.recv_wire()
        if kind == "binary":
            rid = peek_request_id(payload)
            decoder = self._streams.get(rid)
            if decoder is None:
                raise ProtocolError(
                    f"binary frame for unknown stream id {rid}"
                )
            decoder.feed(payload)
            return None
        frame = payload
        ftype = frame.get("type")
        if ftype == "result_header":
            self._streams[frame.get("id")] = StreamDecoder(frame)
            return None
        if ftype == "result_end":
            rid = frame.get("id")
            decoder = self._streams.pop(rid, None)
            if decoder is None:
                raise ProtocolError(
                    f"result_end without a stream for id {rid}"
                )
            decoder.finish(frame)
            return {**decoder.header, "type": "result", "_decoder": decoder}
        return frame

    def _request(self, frame: Dict) -> Dict:
        """Send one request and wait for the frame echoing its id."""
        rid = frame["id"]
        self.send_raw(frame)
        if rid in self._out_of_order:
            return self._out_of_order.pop(rid)
        while True:
            reply = self._pump()
            if reply is None:
                continue
            if reply.get("id") == rid:
                return reply
            # A reply for a different id (e.g. the error frame of a
            # cancelled statement): hold it for its requester.
            self._out_of_order[reply.get("id")] = reply

    def _unwrap(self, reply: Dict, want: str) -> Dict:
        if reply["type"] == "error":
            raise exception_from_frame(reply)
        if reply["type"] == "busy":
            raise ServerBusyError(
                "server busy (admission caps full); retry",
                inflight=reply.get("inflight", -1),
                cap=reply.get("cap", -1),
            )
        if reply["type"] != want:
            raise ProtocolError(
                f"expected a {want!r} frame, got {reply['type']!r}"
            )
        return reply

    def _exchange(
        self,
        frame_type: str,
        sql: str,
        want: str,
        busy_retries: Optional[int],
        busy_backoff: Optional[float],
    ):
        """The one request loop behind ``execute``, ``execute_streaming``,
        ``iterate`` and ``explain``.

        Sends a ``query`` or ``explain`` frame, yields ``(columns, rows)``
        batches as a SELECT's chunks decode, and returns the reply frame
        (generator value). A BUSY refusal is resent after a jittered
        backoff, up to ``busy_retries`` times (default: the client-level
        ``max_retries`` / ``busy_backoff`` knobs); once they are spent the
        ServerBusyError counts every attempt and chains the last refusal.
        """
        if busy_retries is None:
            busy_retries = self.max_retries
        if busy_backoff is None:
            busy_backoff = self.busy_backoff
        attempt = 0
        while True:
            rid = self.next_id()
            self.last_request_id = rid
            self.send_raw({"type": frame_type, "id": rid, "sql": sql})
            reply: Optional[Dict] = None
            while reply is None:
                reply = self._pump()
                decoder = self._streams.get(rid)
                if decoder is not None:
                    batch = decoder.drain_rows()
                    if batch:
                        yield decoder.columns, batch
                if reply is not None and reply.get("id") != rid:
                    self._out_of_order[reply.get("id")] = reply
                    reply = None
            try:
                final = self._unwrap(reply, want)
            except ServerBusyError as exc:
                if attempt >= busy_retries:
                    if busy_retries > 0:
                        raise ServerBusyError(
                            f"server still busy after {attempt + 1} "
                            f"attempts ({busy_retries} retries with "
                            "backoff exhausted)",
                            inflight=exc.inflight,
                            cap=exc.cap,
                            attempts=attempt + 1,
                        ) from exc
                    raise
                time.sleep(_backoff_delay(busy_backoff, attempt))
                attempt += 1
                continue
            decoder = final.get("_decoder")
            if decoder is not None:
                # Anything decoded between the last chunk and result_end.
                tail = decoder.drain_rows()
                if tail:
                    yield decoder.columns, tail
            return final

    # ------------------------------------------------------------------
    # Session-shaped surface
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        busy_retries: Optional[int] = None,
        busy_backoff: Optional[float] = None,
    ) -> RemoteResult:
        """Execute one statement on the server.

        Retry arguments default to the client-level ``max_retries`` /
        ``busy_backoff`` knobs.
        """
        return _remote_result(
            _finish(
                self._exchange("query", sql, "result", busy_retries, busy_backoff)
            )
        )

    def iterate(
        self,
        sql: str,
        busy_retries: Optional[int] = None,
        busy_backoff: Optional[float] = None,
    ) -> Iterator[List[Tuple[Value, ...]]]:
        """Execute one statement, yielding row batches as they arrive.

        Each chunk becomes one batch the moment it is decoded — the first
        batch is available before the server finishes sending the
        result. Raises exactly like :meth:`execute` on errors.
        """
        for _columns, batch in self._exchange(
            "query", sql, "result", busy_retries, busy_backoff
        ):
            yield batch

    def execute_streaming(
        self,
        sql: str,
        on_batch,
        busy_retries: Optional[int] = None,
        busy_backoff: Optional[float] = None,
    ) -> RemoteResult:
        """:meth:`execute`, invoking ``on_batch(columns, rows)`` as each
        chunk decodes. The returned result still carries all rows."""
        return _remote_result(
            _finish(
                self._exchange(
                    "query", sql, "result", busy_retries, busy_backoff
                ),
                on_batch,
            )
        )

    def explain(
        self,
        sql: str,
        busy_retries: Optional[int] = None,
        busy_backoff: Optional[float] = None,
    ) -> str:
        reply = _finish(
            self._exchange("explain", sql, "plan", busy_retries, busy_backoff)
        )
        return str(reply.get("text", ""))

    def stats(self) -> Dict:
        reply = self._unwrap(
            self._request({"type": "stats", "id": self.next_id()}),
            "stats_result",
        )
        return dict(reply.get("stats", {}))

    def ping(self) -> float:
        """Round-trip a ping; returns the latency in seconds."""
        started = time.perf_counter()
        self._unwrap(
            self._request({"type": "ping", "id": self.next_id()}), "pong"
        )
        return time.perf_counter() - started

    def cancel(self, target: int) -> bool:
        """Best-effort cancel of a pipelined request by id."""
        reply = self._unwrap(
            self._request(
                {"type": "cancel", "id": self.next_id(), "target": target}
            ),
            "cancel_result",
        )
        return bool(reply.get("cancelled", False))

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._file.close()
            except OSError:
                pass
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    timeout: float = 30.0,
    connect_retries: int = 20,
    retry_delay: float = 0.1,
    max_retries: int = 0,
    busy_backoff: float = 0.05,
) -> Client:
    """Open a blocking client connection (retries while the server boots)."""
    return Client(
        host=host,
        port=port,
        timeout=timeout,
        connect_retries=connect_retries,
        retry_delay=retry_delay,
        max_retries=max_retries,
        busy_backoff=busy_backoff,
    )
