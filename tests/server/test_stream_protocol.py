"""Binary columnar frames, the handshake, streaming clients.

Covers the frame codec in isolation (round-trips, every truncation and
corruption path), that every SELECT reply is a stream (0 rows included)
and every DML reply one JSON frame, incremental delivery, the frame cap, and
the edge cases a wire protocol lives or dies by: torn frames, binary
frames in the wrong direction, mid-stream disconnects, a refused
version-1 hello.
"""

import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Engine, EngineConfig
from repro.server import (
    ProtocolError,
    ReproServer,
    StreamDecoder,
    build_stream_frames,
    connect,
    encode_binary_frame,
    encode_frame,
    parse_binary_frame,
    read_wire_frame_blocking,
)
from repro.server.frames import (
    DTYPE_DICT32,
    DTYPE_FLOAT64,
    DTYPE_INT64,
    KIND_CHUNK,
    KIND_DICT,
    encode_chunk_frame,
    encode_dict_frame,
    peek_request_id,
)
from tests.conftest import build_mini_db

SQL = "SELECT id, name, salary, city FROM owner ORDER BY id"


def read_json(stream) -> dict:
    kind, frame = read_wire_frame_blocking(stream)
    assert kind == "json"
    return frame


def make_engine() -> Engine:
    db = build_mini_db(n_owners=300, n_cars=60, seed=11)
    return Engine(db, EngineConfig())


@pytest.fixture
def server():
    # Tiny chunks so a 300-row result streams as several CHUNK frames.
    srv = ReproServer(make_engine(), port=0, chunk_rows=100).start_in_thread()
    yield srv
    srv.stop_from_thread()


# ----------------------------------------------------------------------
# Frame codec round-trips
# ----------------------------------------------------------------------
def test_dict_frame_roundtrip():
    entries = ["Ottawa", "", "Waßerloo", "x" * 500]
    kind, rid, (column_index, decoded) = parse_binary_frame(
        encode_dict_frame(42, 3, entries)
    )
    assert (kind, rid, column_index) == (KIND_DICT, 42, 3)
    assert decoded == entries


def test_empty_dict_frame_roundtrip():
    kind, _rid, (column_index, decoded) = parse_binary_frame(
        encode_dict_frame(1, 0, [])
    )
    assert (kind, column_index, decoded) == (KIND_DICT, 0, [])


def reference_dict_frame(request_id, column_index, entries) -> bytes:
    """The DICT wire format spelled out one entry at a time."""
    blobs = [entry.encode("utf-8") for entry in entries]
    offsets = [0]
    for blob in blobs:
        offsets.append(offsets[-1] + len(blob))
    return (
        struct.pack("<BqII", KIND_DICT, request_id, column_index, len(blobs))
        + struct.pack(f"<{len(offsets)}I", *offsets)
        + b"".join(blobs)
    )


@st.composite
def dictionary_entries(draw):
    shape = draw(st.sampled_from(["any", "ascii", "one_non_ascii"]))
    if shape == "any":
        return draw(st.lists(st.text()))
    entries = draw(st.lists(st.text(st.characters(max_codepoint=0x7F))))
    if shape == "one_non_ascii":
        # codec="utf-8", as st.text()'s default alphabet in the "any"
        # shape: a lone surrogate is no UTF-8 text, and the reference
        # encoder above raises on it as the codec does.
        other = draw(
            st.text(st.characters(min_codepoint=0x80, codec="utf-8"), min_size=1)
        )
        entries.insert(draw(st.integers(0, len(entries))), other)
    return entries


@settings(max_examples=300, deadline=None)
@given(dictionary_entries())
@example(["", "\x00", "a\x00b", ""])
@example(["Ottawa", "Waßerloo", "東京", "x"])
def test_dict_frame_codec_roundtrips_and_keeps_the_wire_format(entries):
    payload = encode_dict_frame(9, 2, entries)
    assert payload == reference_dict_frame(9, 2, entries)
    assert parse_binary_frame(payload) == (KIND_DICT, 9, (2, entries))


def dict_payload(offsets, blob: bytes) -> bytes:
    return (
        struct.pack("<BqII", KIND_DICT, 1, 0, len(offsets) - 1)
        + struct.pack(f"<{len(offsets)}I", *offsets)
        + blob
    )


@pytest.mark.parametrize(
    "offsets, blob, message",
    [
        ([0, 2], b"\xff\xfe", "not UTF-8"),
        # One two-byte character cut across two entries: the whole blob
        # is valid UTF-8, each entry is not.
        ([0, 1, 2], "é".encode("utf-8"), "not UTF-8"),
        # Slicing at these offsets would yield ['abc', ''].
        ([0, 3, 2], b"abc", "not ascending"),
        ([1, 3], b"abc", "not ascending"),
    ],
)
def test_malformed_dict_frames_rejected(offsets, blob, message):
    with pytest.raises(ProtocolError, match=message):
        parse_binary_frame(dict_payload(offsets, blob))


def test_chunk_frame_roundtrip_all_dtypes():
    ints = np.arange(5, dtype="<i8") * 1000
    floats = np.linspace(-1.5, 2.5, 5)
    codes = np.array([0, 1, 0, 2, 1], dtype="<i4")
    payload = encode_chunk_frame(
        7,
        2,
        [(DTYPE_INT64, ints), (DTYPE_FLOAT64, floats), (DTYPE_DICT32, codes)],
    )
    assert peek_request_id(payload) == 7
    kind, rid, (chunk_index, columns) = parse_binary_frame(payload)
    assert (kind, rid, chunk_index) == (KIND_CHUNK, 7, 2)
    assert [code for code, _ in columns] == [
        DTYPE_INT64,
        DTYPE_FLOAT64,
        DTYPE_DICT32,
    ]
    np.testing.assert_array_equal(columns[0][1], ints)
    np.testing.assert_array_equal(columns[1][1], floats)
    np.testing.assert_array_equal(columns[2][1], codes)


def test_torn_and_corrupt_binary_frames_rejected():
    chunk = encode_chunk_frame(1, 0, [(DTYPE_INT64, np.arange(4))])
    dictionary = encode_dict_frame(1, 0, ["a", "bc"])
    cases = [
        (b"", "shorter than its prefix"),
        (chunk[:5], "shorter than its prefix"),
        (chunk[:12], "truncated CHUNK frame header"),
        (chunk[:25], "truncated CHUNK column header"),
        (chunk[:-3], "truncated CHUNK column buffer"),
        (dictionary[:12], "truncated DICT frame header"),
        (dictionary[:20], "truncated DICT frame offsets"),
        (dictionary[:-1], "truncated DICT frame blob"),
        (dictionary + b"d", "bytes past its blob"),
    ]
    for payload, message in cases:
        with pytest.raises(ProtocolError, match=message):
            parse_binary_frame(payload)
    with pytest.raises(ProtocolError, match="shorter than its prefix"):
        peek_request_id(b"\x01")


def test_unknown_kind_and_dtype_rejected():
    prefix = struct.Struct("<Bq").pack(9, 1)
    with pytest.raises(ProtocolError, match="unknown binary frame kind 9"):
        parse_binary_frame(prefix)
    # Patch a chunk's per-column dtype code to an unassigned value.
    chunk = bytearray(encode_chunk_frame(1, 0, [(DTYPE_INT64, np.arange(2))]))
    col_head = struct.Struct("<Bq").size + struct.Struct("<IIH").size
    chunk[col_head] = 77
    with pytest.raises(ProtocolError, match="unknown dtype code 77"):
        parse_binary_frame(bytes(chunk))


def test_buffer_size_mismatch_rejected():
    # Claim 4 rows but ship 3 values' worth of bytes.
    good = encode_chunk_frame(1, 0, [(DTYPE_INT64, np.arange(3))])
    tampered = bytearray(good)
    head = struct.Struct("<Bq")
    struct.Struct("<IIH").pack_into(tampered, head.size, 0, 4, 1)
    with pytest.raises(ProtocolError, match="expected 4 x 8"):
        parse_binary_frame(bytes(tampered))


# ----------------------------------------------------------------------
# build_stream_frames <-> StreamDecoder (no socket)
# ----------------------------------------------------------------------
def test_stream_frames_roundtrip_chunked():
    engine = make_engine()
    result = engine.execute(SQL)
    header, payloads, end = build_stream_frames(5, result, chunk_rows=90)
    assert header["row_count"] == 300
    assert header["n_chunks"] == 4  # ceil(300 / 90)
    assert header["columns"] == list(result.columns)
    decoder = StreamDecoder(header)
    batches = []
    for payload in payloads:
        decoder.feed(payload)
        batches.append(len(decoder.drain_rows()))
    decoder.finish(end)
    assert decoder.complete
    assert decoder.rows == result.rows
    # DICT frames yield no rows; CHUNK frames drain incrementally.
    assert [b for b in batches if b] == [90, 90, 90, 30]


def test_decoder_rejects_out_of_order_chunks():
    result = make_engine().execute(SQL)
    header, payloads, _end = build_stream_frames(5, result, chunk_rows=90)
    decoder = StreamDecoder(header)
    dicts = [p for p in payloads if parse_binary_frame(p)[0] == KIND_DICT]
    chunks = [p for p in payloads if parse_binary_frame(p)[0] == KIND_CHUNK]
    for payload in dicts:
        decoder.feed(payload)
    with pytest.raises(ProtocolError, match="out of order"):
        decoder.feed(chunks[1])


def test_decoder_rejects_chunk_before_its_dictionary():
    result = make_engine().execute(SQL)
    _header, payloads, _end = build_stream_frames(5, result, chunk_rows=90)
    decoder = StreamDecoder(_header)
    chunk = next(
        p for p in payloads if parse_binary_frame(p)[0] == KIND_CHUNK
    )
    with pytest.raises(ProtocolError, match="before its DICT frame"):
        decoder.feed(chunk)


def test_decoder_rejects_truncated_stream():
    result = make_engine().execute(SQL)
    header, payloads, end = build_stream_frames(5, result, chunk_rows=90)
    decoder = StreamDecoder(header)
    for payload in payloads[:-1]:  # drop the last chunk
        decoder.feed(payload)
    with pytest.raises(ProtocolError, match="of 4 chunks"):
        decoder.finish(end)


def one_string_column(codes) -> StreamDecoder:
    decoder = StreamDecoder(
        {"columns": ["city"], "row_count": len(codes), "n_chunks": 1}
    )
    decoder.feed(encode_dict_frame(1, 0, ["Ottawa", "Toronto"]))
    return decoder


@pytest.mark.parametrize("bad_code", [-1, 2, 2**31 - 1])
def test_decoder_rejects_codes_outside_the_dictionary(bad_code):
    # numpy would decode a negative code as an entry counted from the end
    # and raise IndexError on a large one.
    codes = np.array([0, bad_code, 1], dtype="<i4")
    decoder = one_string_column(codes)
    with pytest.raises(ProtocolError, match="'city' has codes outside"):
        decoder.feed(encode_chunk_frame(1, 0, [(DTYPE_DICT32, codes)]))


def test_decoder_rejects_a_chunk_of_the_wrong_width():
    codes = np.array([0, 1], dtype="<i4")
    decoder = one_string_column(codes)
    chunk = encode_chunk_frame(
        1, 0, [(DTYPE_DICT32, codes), (DTYPE_INT64, np.arange(2))]
    )
    with pytest.raises(ProtocolError, match="carries 2 columns, header names 1"):
        decoder.feed(chunk)


def test_decoder_rejects_rows_a_zero_row_header_did_not_promise():
    result = make_engine().execute(SQL)
    header, payloads, end = build_stream_frames(5, result, chunk_rows=90)
    decoder = StreamDecoder({**header, "row_count": 0})
    for payload in payloads:
        decoder.feed(payload)
    with pytest.raises(ProtocolError, match="carried 300 rows, header promised 0"):
        decoder.finish(end)


@pytest.fixture(scope="module")
def sample_stream():
    result = make_engine().execute(SQL)
    return build_stream_frames(5, result, chunk_rows=90)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupt_frames_raise_only_protocol_errors(sample_stream, data):
    header, payloads, end = sample_stream
    payloads = list(payloads)
    target = data.draw(st.integers(0, len(payloads) - 1))
    corrupt = bytearray(payloads[target])
    for _ in range(data.draw(st.integers(0, 3))):
        position = data.draw(st.integers(0, len(corrupt) - 1))
        corrupt[position] ^= data.draw(st.integers(1, 255))
    if data.draw(st.booleans()):
        del corrupt[data.draw(st.integers(0, len(corrupt))) :]
    payloads[target] = bytes(corrupt)
    decoder = StreamDecoder(header)
    try:
        for payload in payloads:
            decoder.feed(payload)
        decoder.finish(end)
    except ProtocolError:
        pass


# ----------------------------------------------------------------------
# End-to-end over a socket
# ----------------------------------------------------------------------
def test_version_1_hello_is_refused(server):
    with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
        stream = sock.makefile("rb")
        sock.sendall(encode_frame({"type": "hello", "version": 1}))
        reply = read_json(stream)
        assert reply["type"] == "error"
        assert reply["code"] == "PROTOCOL"
        assert "version-2" in reply["message"]
        assert stream.read(1) == b""  # the server closed the socket


def test_small_results_stream(server):
    with connect(port=server.port) as client:
        result = client.execute("SELECT COUNT(*) FROM owner")
        assert result.rows == [(300,)]
        assert result.streamed is True


def test_empty_result_streams_its_columns(server):
    seen = []
    with connect(port=server.port) as client:
        result = client.execute_streaming(
            "SELECT id, name FROM owner WHERE id < 0",
            lambda columns, rows: seen.append(rows),
        )
    assert result.streamed is True
    assert result.columns == ["id", "name"]
    assert result.rows == [] and result.row_count == 0
    assert seen == []


@pytest.mark.parametrize(
    "sql, n_rows",
    [
        ("SELECT id, name FROM owner WHERE id < 0", 0),
        ("SELECT COUNT(*) FROM owner", 1),
        (SQL, 300),
    ],
)
def test_every_select_reply_is_a_stream(server, sql, n_rows):
    with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
        stream = sock.makefile("rb")
        sock.sendall(encode_frame({"type": "hello", "version": 2}))
        assert read_json(stream)["type"] == "hello_ok"
        sock.sendall(encode_frame({"type": "query", "id": 1, "sql": sql}))
        header = read_json(stream)
        assert header["type"] == "result_header"
        assert header["row_count"] == n_rows
        assert header["n_chunks"] == -(-n_rows // 100)
        chunks = 0
        kind, frame = read_wire_frame_blocking(stream)
        while kind == "binary":
            chunks += parse_binary_frame(frame)[0] == KIND_CHUNK
            kind, frame = read_wire_frame_blocking(stream)
        assert frame == {"type": "result_end", "id": 1, "chunks": chunks}
        assert chunks == header["n_chunks"]
        # DML stays one JSON frame, with no columns or rows.
        sock.sendall(
            encode_frame(
                {"type": "query", "id": 2, "sql": "DELETE FROM car WHERE id < 0"}
            )
        )
        reply = read_json(stream)
        assert reply["type"] == "result" and reply["affected_rows"] == 0
        assert "rows" not in reply and "columns" not in reply


def test_iterate_yields_incremental_batches(server):
    with connect(port=server.port) as client:
        batches = list(client.iterate(SQL))
    assert len(batches) == 3  # 300 rows / 100-row chunks
    assert [len(b) for b in batches] == [100, 100, 100]
    rows = [row for batch in batches for row in batch]
    with connect(port=server.port) as client:
        assert rows == client.execute(SQL).rows


def test_execute_streaming_callback_sees_every_chunk(server):
    seen = []
    with connect(port=server.port) as client:
        result = client.execute_streaming(
            SQL, lambda columns, rows: seen.append((tuple(columns), len(rows)))
        )
    assert result.streamed is True
    assert [n for _, n in seen] == [100, 100, 100]
    assert all(cols == tuple(result.columns) for cols, _ in seen)
    assert sum(n for _, n in seen) == len(result.rows)


def test_one_chunk_callback_fires_once(server):
    seen = []
    with connect(port=server.port) as client:
        result = client.execute_streaming(
            "SELECT COUNT(*) FROM car",
            lambda columns, rows: seen.append((columns, rows)),
        )
    assert result.streamed is True
    assert seen == [(result.columns, [(60,)])]


def test_dml_and_errors_unaffected_by_v2(server):
    with connect(port=server.port) as client:
        deleted = client.execute("DELETE FROM car WHERE id < 10")
        assert deleted.statement_type == "delete"
        assert deleted.streamed is False
        with pytest.raises(Exception):
            client.execute("SELECT nosuch FROM owner")
        assert client.execute("SELECT COUNT(*) FROM owner").rows == [(300,)]


# ----------------------------------------------------------------------
# The frame cap
# ----------------------------------------------------------------------
def test_v2_streams_past_the_json_cap(server, monkeypatch):
    import repro.server.protocol as protocol

    # A result far over a 4 KiB cap as one JSON frame streams fine:
    # each binary chunk is below the cap.
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
    with connect(port=server.port) as client:
        result = client.execute(SQL)
        assert result.streamed is True
        assert result.row_count == 300


# ----------------------------------------------------------------------
# Wrong-direction and mid-stream failures
# ----------------------------------------------------------------------
def test_client_sent_binary_frame_rejected(server):
    with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
        stream = sock.makefile("rb")
        sock.sendall(encode_frame({"type": "hello", "version": 2}))
        assert read_json(stream)["type"] == "hello_ok"
        sock.sendall(encode_binary_frame(b"\x02" + b"\x00" * 20))
        reply = read_json(stream)
        assert reply["type"] == "error"
        assert reply["code"] == "PROTOCOL"
    # The server keeps serving.
    with connect(port=server.port) as client:
        assert client.execute("SELECT COUNT(*) FROM owner").row_count == 1


def test_mid_stream_disconnect_releases_the_session(server):
    sock = socket.create_connection(("127.0.0.1", server.port), 5)
    stream = sock.makefile("rb")
    sock.sendall(encode_frame({"type": "hello", "version": 2}))
    assert read_json(stream)["type"] == "hello_ok"
    sock.sendall(encode_frame({"type": "query", "id": 1, "sql": SQL}))
    # Read just the header, then vanish mid-stream. (Close the makefile
    # wrapper too — it holds its own reference to the fd.)
    assert read_json(stream)["type"] == "result_header"
    stream.close()
    sock.close()
    # The session (and any locks it held) must be released: a write
    # statement through a fresh connection cannot succeed otherwise.
    deadline = time.monotonic() + 5.0
    with connect(port=server.port) as client:
        deleted = client.execute("DELETE FROM car WHERE id >= 55")
        assert deleted.affected_rows >= 1
        while time.monotonic() < deadline:
            if client.stats()["server"]["connections"] == 1:
                break
            time.sleep(0.05)
        assert client.stats()["server"]["connections"] == 1
