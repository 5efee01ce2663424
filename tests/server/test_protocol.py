"""Wire-protocol unit tests: framing, handshake constants, error frames."""

import io
import struct

import pytest

from repro.errors import (
    BindingError,
    CatalogError,
    ConfigError,
    ExecutionError,
    ReproError,
    SqlSyntaxError,
)
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    CancelledStatementError,
    ProtocolError,
    decode_payload,
    encode_frame,
    error_code_for,
    error_frame,
    exception_from_frame,
    read_wire_frame_blocking,
)


def roundtrip(frame):
    wire = encode_frame(frame)
    kind, decoded = read_wire_frame_blocking(io.BytesIO(wire))
    assert kind == "json"
    return decoded


def test_frame_roundtrip():
    frame = {
        "type": "result",
        "id": 7,
        "rows": [[1, "Toyota", 2.5], [2, "Honda", -1.0]],
        "timings": {"compile": 0.25},
    }
    assert roundtrip(frame) == frame


def test_frame_is_length_prefixed():
    wire = encode_frame({"type": "ping", "id": 1})
    (length,) = struct.unpack(">I", wire[:4])
    assert length == len(wire) - 4


def test_numpy_scalars_serialize():
    np = pytest.importorskip("numpy")
    frame = roundtrip(
        {"type": "result", "id": 1, "rows": [[np.int64(3), np.float64(1.5)]]}
    )
    assert frame["rows"] == [[3, 1.5]]


def test_blocking_read_eof_and_truncation():
    with pytest.raises(ProtocolError, match="closed by server"):
        read_wire_frame_blocking(io.BytesIO(b""))
    with pytest.raises(ProtocolError, match="mid-header"):
        read_wire_frame_blocking(io.BytesIO(b"\x00\x00"))
    wire = encode_frame({"type": "ping", "id": 1})
    with pytest.raises(ProtocolError, match="mid-frame"):
        read_wire_frame_blocking(io.BytesIO(wire[:-2]))


def test_oversized_frames_rejected_both_ways():
    huge = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(ProtocolError, match="exceeds"):
        read_wire_frame_blocking(io.BytesIO(huge))
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame({"type": "x", "blob": "a" * (MAX_FRAME_BYTES + 1)})


def test_decode_payload_rejects_non_objects():
    with pytest.raises(ProtocolError):
        decode_payload(b"[1, 2, 3]")
    with pytest.raises(ProtocolError):
        decode_payload(b'{"no_type": 1}')
    with pytest.raises(ProtocolError):
        decode_payload(b"\xff\xfe")


def test_error_codes_distinguish_config_from_runtime():
    assert error_code_for(ConfigError("bad knob")) == "CONFIG"
    assert error_code_for(ExecutionError("boom")) == "RUNTIME"
    assert error_code_for(CatalogError("nope")) == "RUNTIME"
    assert error_code_for(SqlSyntaxError("bad", position=3)) == "SYNTAX"
    assert error_code_for(ProtocolError("junk")) == "PROTOCOL"
    assert error_code_for(ValueError("python")) == "INTERNAL"


def test_error_frame_carries_class_and_position():
    frame = error_frame(9, SqlSyntaxError("unexpected token", position=17))
    assert frame["id"] == 9
    assert frame["code"] == "SYNTAX"
    assert frame["error_class"] == "SqlSyntaxError"
    assert frame["position"] == 17
    rebuilt = exception_from_frame(frame)
    assert isinstance(rebuilt, SqlSyntaxError)
    assert rebuilt.position == 17


def test_exception_from_frame_maps_known_classes():
    for exc in (
        BindingError("b"),
        ConfigError("c"),
        ExecutionError("e"),
        CancelledStatementError("x"),
    ):
        rebuilt = exception_from_frame(error_frame(1, exc))
        assert type(rebuilt) is type(exc)
        assert str(rebuilt) == str(exc)


def test_exception_from_frame_unknown_class_falls_back():
    rebuilt = exception_from_frame(
        {"type": "error", "id": 1, "error_class": "NoSuch", "message": "m"}
    )
    assert type(rebuilt) is ReproError
