"""Wire protocol for the network front-end.

Frames are length-prefixed: a 4-byte big-endian length word followed by
the payload. With the high bit of the length word clear the payload is a
UTF-8 JSON object; with it set (:data:`BINARY_FLAG`, server -> client
only) the payload is a binary columnar frame (see
:mod:`repro.server.frames`). Every JSON frame carries a ``type``; every
request carries a client-chosen ``id`` that the matching response echoes,
so clients may pipeline requests and match replies out of order.

Handshake (first frame in each direction)::

    C -> S   {"type": "hello", "version": 2, "client": "..."}
    S -> C   {"type": "hello_ok", "version": 2, "server": "repro/x.y"}

Version 2 is the only version; any other ``hello`` is refused with a
``PROTOCOL`` error and the connection closed. Every SELECT result, of
any row count, streams as a JSON ``result_header``, binary
dictionary/chunk frames, then a JSON ``result_end``; DML and DDL replies
are one JSON ``result``. ``cancel`` interrupts *running* statements at
morsel/checkpoint boundaries.

Requests::

    {"type": "query",   "id": n, "sql": "..."}   any SQL statement
    {"type": "explain", "id": n, "sql": "..."}   plan text, no execution
    {"type": "stats",   "id": n}                 engine counter snapshot
    {"type": "ping",    "id": n}                 liveness probe
    {"type": "cancel",  "id": n, "target": m}    dequeue or interrupt m

Responses::

    {"type": "result_header", "id": n, ...}  then binary frames, then
    {"type": "result_end", "id": n, "chunks": k}      (SELECT)
    {"type": "result", "id": n, "statement_type": ...,
     "affected_rows": k, "timings": {...}}            (DML, DDL)
    {"type": "plan", "id": n, "text": "..."}
    {"type": "stats_result", "id": n, "stats": {...}}
    {"type": "pong", "id": n}
    {"type": "cancel_result", "id": n, "target": m, "cancelled": bool}
    {"type": "busy", "id": n, "retryable": true, "inflight": k, "cap": c}
    {"type": "error", "id": n, "code": ..., "error_class": ...,
     "message": "...", "position": p}

``busy`` is the backpressure signal: the request was *not* admitted (the
per-client in-flight cap or the server admission limit is full) and can
be retried unchanged. Error frames carry the :class:`ReproError` leaf
class name, a coarse ``code`` for programmatic dispatch (``SYNTAX`` /
``CONFIG`` / ``RUNTIME`` / ``PROTOCOL`` / ``CANCELLED`` / ``INTERNAL``)
and, for syntax errors, the 0-based ``position`` of the offending token.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import BinaryIO, Dict, Optional, Type

import numpy as np

from ..errors import (
    BindingError,
    CatalogError,
    ConfigError,
    ExecutionError,
    InvalidValueError,
    PlanningError,
    ReproError,
    SqlSyntaxError,
    StatementCancelledError,
    StatisticsError,
    StorageError,
)

PROTOCOL_VERSION = 2
DEFAULT_PORT = 7433
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: High bit of the length word marks a binary (columnar) payload; JSON
#: frames keep it clear. Payloads are capped at 32 MiB, so real lengths
#: never reach bit 31 and the flag is unambiguous on the wire.
BINARY_FLAG = 0x80000000

# Error codes carried in error frames.
CODE_SYNTAX = "SYNTAX"
CODE_CONFIG = "CONFIG"
CODE_RUNTIME = "RUNTIME"
CODE_PROTOCOL = "PROTOCOL"
CODE_CANCELLED = "CANCELLED"
CODE_INTERNAL = "INTERNAL"


class ProtocolError(ReproError):
    """Malformed frame, broken framing, or a handshake violation."""


class ServerBusyError(ReproError):
    """The server refused to admit the request (retryable backpressure).

    ``attempts`` counts how many times the request was tried before the
    error surfaced (1 when the caller did not opt into retries).
    """

    def __init__(
        self,
        message: str,
        inflight: int = -1,
        cap: int = -1,
        attempts: int = 1,
    ):
        super().__init__(message)
        self.inflight = inflight
        self.cap = cap
        self.attempts = attempts


class CancelledStatementError(ReproError):
    """The statement was cancelled before it started executing."""


#: Exception classes reconstructible from an ``error_class`` frame field.
_ERROR_CLASSES: Dict[str, Type[ReproError]] = {
    cls.__name__: cls
    for cls in (
        ReproError,
        SqlSyntaxError,
        CatalogError,
        BindingError,
        ConfigError,
        StorageError,
        InvalidValueError,
        PlanningError,
        ExecutionError,
        StatisticsError,
        ProtocolError,
        CancelledStatementError,
        StatementCancelledError,
    )
}


def _json_default(value):
    """Tolerate numpy scalars leaking into counters and timings."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"unserializable value of type {type(value).__name__}")


def encode_frame(frame: Dict) -> bytes:
    """Serialize one frame to its wire form (header + JSON payload)."""
    payload = json.dumps(
        frame, separators=(",", ":"), default=_json_default
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


def encode_binary_frame(payload: bytes) -> bytes:
    """Wrap a binary (columnar) payload: length word with the high bit set."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"binary frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(payload) | BINARY_FLAG) + payload


def decode_payload(payload: bytes) -> Dict:
    """Parse a frame payload; the result is guaranteed to be an object
    with a string ``type``."""
    try:
        frame = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
        raise ProtocolError("frame must be a JSON object with a 'type'")
    return frame


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict]:
    """Read one frame from an asyncio stream; None on clean EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    (word,) = _HEADER.unpack(header)
    if word & BINARY_FLAG:
        # Clients never send binary frames; the server-bound direction of
        # the wire is pure JSON.
        raise ProtocolError("unexpected binary frame from client")
    _check_length(word)
    try:
        payload = await reader.readexactly(word)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_payload(payload)


def read_wire_frame_blocking(stream: BinaryIO):
    """Read one frame from a blocking stream, JSON or binary.

    Returns ``("json", dict)`` for JSON frames and ``("binary", bytes)``
    for binary columnar payloads (length word with :data:`BINARY_FLAG`
    set).
    """
    header = stream.read(_HEADER.size)
    if not header:
        raise ProtocolError("connection closed by server")
    if len(header) < _HEADER.size:
        raise ProtocolError("connection closed mid-header")
    (word,) = _HEADER.unpack(header)
    binary = bool(word & BINARY_FLAG)
    length = word & ~BINARY_FLAG
    _check_length(length)
    payload = stream.read(length)
    if payload is None or len(payload) < length:
        raise ProtocolError("connection closed mid-frame")
    if binary:
        return "binary", payload
    return "json", decode_payload(payload)


# ----------------------------------------------------------------------
# Error frames
# ----------------------------------------------------------------------
def error_code_for(exc: BaseException) -> str:
    """Coarse frame code for an exception (config vs. runtime vs. ...)."""
    if isinstance(exc, SqlSyntaxError):
        return CODE_SYNTAX
    if isinstance(exc, ConfigError):
        return CODE_CONFIG
    if isinstance(exc, ProtocolError):
        return CODE_PROTOCOL
    if isinstance(exc, (CancelledStatementError, StatementCancelledError)):
        return CODE_CANCELLED
    if isinstance(exc, ReproError):
        return CODE_RUNTIME
    return CODE_INTERNAL


def error_frame(request_id, exc: BaseException) -> Dict:
    """The error frame describing ``exc`` for request ``request_id``."""
    return {
        "type": "error",
        "id": request_id,
        "code": error_code_for(exc),
        "error_class": type(exc).__name__,
        "message": str(exc),
        "position": getattr(exc, "position", -1),
    }


def exception_from_frame(frame: Dict) -> ReproError:
    """Rebuild the closest client-side exception for an error frame."""
    message = str(frame.get("message", "server error"))
    cls = _ERROR_CLASSES.get(str(frame.get("error_class", "")), ReproError)
    if cls is SqlSyntaxError:
        position = frame.get("position", -1)
        return SqlSyntaxError(
            message, position=position if isinstance(position, int) else -1
        )
    if frame.get("code") == CODE_CANCELLED and not issubclass(
        cls, (CancelledStatementError, StatementCancelledError)
    ):
        return CancelledStatementError(message)
    return cls(message)
