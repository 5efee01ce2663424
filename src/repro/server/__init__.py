"""Network front-end: wire protocol, asyncio server, blocking client and
binary columnar streaming."""

from .client import Client, RemoteResult, connect
from .frames import (
    DEFAULT_CHUNK_ROWS,
    StreamDecoder,
    build_stream_frames,
    parse_binary_frame,
)
from .protocol import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    CancelledStatementError,
    ProtocolError,
    ServerBusyError,
    encode_binary_frame,
    encode_frame,
    error_frame,
    exception_from_frame,
    read_frame,
    read_wire_frame_blocking,
)
from .server import ReproServer

__all__ = [
    "ReproServer",
    "Client",
    "RemoteResult",
    "connect",
    "PROTOCOL_VERSION",
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "DEFAULT_CHUNK_ROWS",
    "ProtocolError",
    "ServerBusyError",
    "CancelledStatementError",
    "StreamDecoder",
    "build_stream_frames",
    "parse_binary_frame",
    "encode_frame",
    "encode_binary_frame",
    "error_frame",
    "exception_from_frame",
    "read_frame",
    "read_wire_frame_blocking",
]
