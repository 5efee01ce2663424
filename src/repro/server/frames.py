"""Binary columnar result frames.

Every SELECT result, at any row count, is shipped as::

    JSON    {"type": "result_header", "id": n, "columns": [...],
             "dtypes": [...], "row_count": r, "chunk_rows": c,
             "n_chunks": k, ...}
    binary  DICT frame, one per string column (result-local dictionary)
    binary  CHUNK frame * k (raw little-endian column buffers)
    JSON    {"type": "result_end", "id": n, "chunks": k}

A 0-row result is its header (columns and dtypes intact), the DICT
frames of its string columns, no CHUNK frame, and ``result_end``.

Binary payload layout (everything little-endian)::

    u8  kind            1 = DICT, 2 = CHUNK
    i64 request_id

    DICT:   u32 column_index, u32 n_entries,
            u32 offsets[n_entries + 1], utf-8 blob
    CHUNK:  u32 chunk_index, u32 n_rows, u16 n_columns, then per column:
            u8 dtype_code, u64 nbytes, raw buffer

Dtype codes:

    ====  ==========  =============================================
    code  buffer      meaning
    ====  ==========  =============================================
    1     int64       integer column values
    2     float64     float column values
    3     int32       codes into the column's DICT frame entries
    ====  ==========  =============================================

String columns are dictionary-encoded with a *result-local* dictionary:
the table's (append-only, unbounded) dictionary codes are compacted in
code order (:func:`~repro.executor.joinutil.group_ids`, which gives what
``np.unique(..., return_inverse=True)`` would) so the wire carries only the
distinct strings that actually appear in the result, once, plus int32
codes per row. Numeric columns are sliced straight out of the result's
vectors, which are immutable snapshot arrays or private gathers.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..executor.joinutil import group_ids
from ..types import DataType, Value
from .protocol import ProtocolError

#: Rows per CHUNK frame. 64Ki rows of int64 is 512 KiB per column —
#: comfortably under the 32 MiB frame cap for any realistic column count.
DEFAULT_CHUNK_ROWS = 65536

KIND_DICT = 1
KIND_CHUNK = 2

DTYPE_INT64 = 1
DTYPE_FLOAT64 = 2
DTYPE_DICT32 = 3

_PREFIX = struct.Struct("<Bq")  # kind, request_id
_DICT_HEAD = struct.Struct("<II")  # column_index, n_entries
_CHUNK_HEAD = struct.Struct("<IIH")  # chunk_index, n_rows, n_columns
_COL_HEAD = struct.Struct("<BQ")  # dtype_code, nbytes

_NUMPY_FOR_CODE = {
    DTYPE_INT64: np.dtype("<i8"),
    DTYPE_FLOAT64: np.dtype("<f8"),
    DTYPE_DICT32: np.dtype("<i4"),
}


def encode_dict_frame(
    request_id: int, column_index: int, entries: Sequence[str]
) -> bytes:
    """One string column's result-local dictionary."""
    text = "".join(entries)
    blob = text.encode("utf-8")
    # Every non-ASCII character takes two or more UTF-8 bytes, so equal
    # lengths mean pure ASCII: character lengths are byte lengths.
    if len(blob) == len(text):
        lengths = map(len, entries)
    else:
        lengths = (len(entry.encode("utf-8")) for entry in entries)
    offsets = np.zeros(len(entries) + 1, dtype="<u4")
    offsets[1:] = np.cumsum(np.fromiter(lengths, np.int64, len(entries)))
    return b"".join(
        (
            _PREFIX.pack(KIND_DICT, request_id),
            _DICT_HEAD.pack(column_index, len(entries)),
            offsets.tobytes(),
            blob,
        )
    )


def encode_chunk_frame(
    request_id: int,
    chunk_index: int,
    columns: Sequence[Tuple[int, np.ndarray]],
) -> bytes:
    """One horizontal slice of the result: ``(dtype_code, array)`` pairs."""
    n_rows = len(columns[0][1]) if columns else 0
    parts = [
        _PREFIX.pack(KIND_CHUNK, request_id),
        _CHUNK_HEAD.pack(chunk_index, n_rows, len(columns)),
    ]
    for dtype_code, array in columns:
        buf = np.ascontiguousarray(array, dtype=_NUMPY_FOR_CODE[dtype_code])
        raw = buf.tobytes()
        parts.append(_COL_HEAD.pack(dtype_code, len(raw)))
        parts.append(raw)
    return b"".join(parts)


# ----------------------------------------------------------------------
# Server side: QueryResult -> frames
# ----------------------------------------------------------------------
def _wire_columns(vectors) -> Tuple[List[Tuple[int, np.ndarray]], Dict[int, List[str]]]:
    """Per-column wire arrays plus result-local string dictionaries."""
    arrays: List[Tuple[int, np.ndarray]] = []
    dictionaries: Dict[int, List[str]] = {}
    for index, vector in enumerate(vectors):
        if vector.dictionary is not None:
            codes = np.asarray(vector.values, dtype=np.int64)
            if len(codes):
                inverse, first = group_ids(codes)
                dictionaries[index] = vector.dictionary.decode_many(codes[first])
                arrays.append((DTYPE_DICT32, inverse.astype("<i4")))
            else:
                dictionaries[index] = []
                arrays.append((DTYPE_DICT32, np.empty(0, dtype="<i4")))
        elif vector.dtype is DataType.INT:
            arrays.append((DTYPE_INT64, np.asarray(vector.values, dtype="<i8")))
        else:
            arrays.append(
                (DTYPE_FLOAT64, np.asarray(vector.values, dtype="<f8"))
            )
    return arrays, dictionaries


def build_stream_frames(
    request_id: int, result, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> Tuple[Dict, List[bytes], Dict]:
    """Frames for one SELECT reply: (header, binary payloads, end).

    ``result`` is a SELECT's (it carries columnar vectors); the caller
    wraps the binary payloads with
    :func:`repro.server.protocol.encode_binary_frame`.
    """
    vectors = result.vectors
    arrays, dictionaries = _wire_columns(vectors)
    n_rows = len(arrays[0][1]) if arrays else 0
    n_chunks = (n_rows + chunk_rows - 1) // chunk_rows if n_rows else 0
    header = {
        "type": "result_header",
        "id": request_id,
        "statement_type": result.statement_type,
        "columns": list(result.columns),
        "dtypes": [v.dtype.name.lower() for v in vectors],
        "row_count": n_rows,
        "affected_rows": result.affected_rows,
        "chunk_rows": chunk_rows,
        "n_chunks": n_chunks,
        "timings": dict(result.timings),
    }
    snapshots = getattr(result, "snapshots", None)
    if snapshots:
        # MVCC provenance: per-table [epoch, stamp] of the pinned
        # generations.
        header["snapshots"] = {
            name: list(pair) for name, pair in snapshots.items()
        }
    payloads: List[bytes] = []
    for index in sorted(dictionaries):
        payloads.append(
            encode_dict_frame(request_id, index, dictionaries[index])
        )
    for chunk_index in range(n_chunks):
        start = chunk_index * chunk_rows
        stop = min(start + chunk_rows, n_rows)
        payloads.append(
            encode_chunk_frame(
                request_id,
                chunk_index,
                [(code, arr[start:stop]) for code, arr in arrays],
            )
        )
    end = {"type": "result_end", "id": request_id, "chunks": n_chunks}
    return header, payloads, end


# ----------------------------------------------------------------------
# Client side: frames -> rows
# ----------------------------------------------------------------------
def peek_request_id(payload: bytes) -> int:
    """The request id a binary payload belongs to (cheap prefix read)."""
    if len(payload) < _PREFIX.size:
        raise ProtocolError("binary frame shorter than its prefix")
    return _PREFIX.unpack_from(payload, 0)[1]


def _dict_entries(blob: bytes, offsets: List[int]) -> List[str]:
    """A DICT blob cut at ``offsets`` (ascending, ``offsets[-1] == len(blob)``)."""
    try:
        text = blob.decode("utf-8")
        if len(text) == len(blob):
            # Pure ASCII: byte offsets are character offsets.
            return [text[a:b] for a, b in zip(offsets, offsets[1:])]
        # Per-entry decode keeps a multi-byte character from being split
        # across two entries.
        return [blob[a:b].decode("utf-8") for a, b in zip(offsets, offsets[1:])]
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"DICT frame entry is not UTF-8: {exc}") from None


def parse_binary_frame(payload: bytes) -> Tuple[int, int, object]:
    """Parse one binary payload into ``(kind, request_id, body)``.

    DICT body: ``(column_index, [entries])``. CHUNK body:
    ``(chunk_index, [(dtype_code, array), ...])``.
    """
    if len(payload) < _PREFIX.size:
        raise ProtocolError("binary frame shorter than its prefix")
    kind, request_id = _PREFIX.unpack_from(payload, 0)
    offset = _PREFIX.size
    if kind == KIND_DICT:
        if len(payload) < offset + _DICT_HEAD.size:
            raise ProtocolError("truncated DICT frame header")
        column_index, n_entries = _DICT_HEAD.unpack_from(payload, offset)
        offset += _DICT_HEAD.size
        offsets_bytes = 4 * (n_entries + 1)
        if len(payload) < offset + offsets_bytes:
            raise ProtocolError("truncated DICT frame offsets")
        offsets = np.frombuffer(
            payload, dtype="<u4", count=n_entries + 1, offset=offset
        )
        if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
            raise ProtocolError("DICT frame offsets are not ascending from 0")
        offset += offsets_bytes
        blob_bytes = int(offsets[-1])
        if len(payload) - offset < blob_bytes:
            raise ProtocolError("truncated DICT frame blob")
        if len(payload) - offset > blob_bytes:
            raise ProtocolError("DICT frame carries bytes past its blob")
        entries = _dict_entries(payload[offset:], offsets.tolist())
        return kind, request_id, (column_index, entries)
    if kind == KIND_CHUNK:
        if len(payload) < offset + _CHUNK_HEAD.size:
            raise ProtocolError("truncated CHUNK frame header")
        chunk_index, n_rows, n_columns = _CHUNK_HEAD.unpack_from(
            payload, offset
        )
        offset += _CHUNK_HEAD.size
        columns: List[Tuple[int, np.ndarray]] = []
        for _ in range(n_columns):
            if len(payload) < offset + _COL_HEAD.size:
                raise ProtocolError("truncated CHUNK column header")
            dtype_code, nbytes = _COL_HEAD.unpack_from(payload, offset)
            offset += _COL_HEAD.size
            dtype = _NUMPY_FOR_CODE.get(dtype_code)
            if dtype is None:
                raise ProtocolError(f"unknown dtype code {dtype_code}")
            if nbytes % dtype.itemsize or nbytes // dtype.itemsize != n_rows:
                raise ProtocolError(
                    f"CHUNK column carries {nbytes} bytes, expected "
                    f"{n_rows} x {dtype.itemsize}"
                )
            if len(payload) < offset + nbytes:
                raise ProtocolError("truncated CHUNK column buffer")
            columns.append(
                (
                    dtype_code,
                    np.frombuffer(payload, dtype=dtype, count=n_rows, offset=offset),
                )
            )
            offset += nbytes
        return kind, request_id, (chunk_index, columns)
    raise ProtocolError(f"unknown binary frame kind {kind}")


class StreamDecoder:
    """Reassembles one streamed result on the client.

    Feed the ``result_header`` dict at construction, every binary payload
    via :meth:`feed`, and close with the ``result_end`` frame. Chunks
    decode incrementally: :meth:`drain_rows` yields finished row tuples
    as soon as their chunk arrives, so a REPL can paint the first batch
    before the query finishes streaming.
    """

    def __init__(self, header: Dict):
        self.header = header
        self.columns: List[str] = list(header.get("columns", []))
        self.row_count = int(header.get("row_count", 0))
        self.n_chunks = int(header.get("n_chunks", 0))
        self._dictionaries: Dict[int, np.ndarray] = {}
        self._next_chunk = 0
        self._pending_rows: List[Tuple[Value, ...]] = []
        self.rows: List[Tuple[Value, ...]] = []
        self.complete = False

    def feed(self, payload: bytes) -> None:
        kind, _rid, body = parse_binary_frame(payload)
        if kind == KIND_DICT:
            column_index, entries = body
            # Object array: one vectorized fancy-index decodes a chunk's
            # codes instead of a Python-level lookup per row.
            self._dictionaries[column_index] = np.array(entries, dtype=object)
            return
        chunk_index, columns = body
        if chunk_index != self._next_chunk:
            raise ProtocolError(
                f"chunk {chunk_index} arrived out of order "
                f"(expected {self._next_chunk})"
            )
        self._next_chunk += 1
        if len(columns) != len(self.columns):
            raise ProtocolError(
                f"CHUNK {chunk_index} carries {len(columns)} columns, "
                f"header names {len(self.columns)}"
            )
        decoded: List[list] = []
        for index, (dtype_code, array) in enumerate(columns):
            if dtype_code == DTYPE_DICT32:
                entries = self._dictionaries.get(index)
                if entries is None:
                    raise ProtocolError(
                        f"CHUNK references column {index} dictionary "
                        "before its DICT frame"
                    )
                # A negative code would index from the end of the entries.
                if len(array) and (
                    array.min() < 0 or array.max() >= len(entries)
                ):
                    raise ProtocolError(
                        f"CHUNK {chunk_index} column {self.columns[index]!r} "
                        f"has codes outside its {len(entries)}-entry dictionary"
                    )
                decoded.append(entries[array].tolist())
            else:
                decoded.append(array.tolist())
        chunk_rows = list(zip(*decoded)) if decoded else []
        self._pending_rows.extend(chunk_rows)
        self.rows.extend(chunk_rows)

    def drain_rows(self) -> List[Tuple[Value, ...]]:
        """Rows decoded since the last drain (incremental rendering)."""
        pending, self._pending_rows = self._pending_rows, []
        return pending

    def finish(self, end_frame: Dict) -> None:
        chunks = int(end_frame.get("chunks", self.n_chunks))
        if self._next_chunk != chunks:
            raise ProtocolError(
                f"stream ended after {self._next_chunk} of {chunks} chunks"
            )
        if len(self.rows) != self.row_count:
            raise ProtocolError(
                f"stream carried {len(self.rows)} rows, header promised "
                f"{self.row_count}"
            )
        self.complete = True
