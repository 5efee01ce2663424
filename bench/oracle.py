"""Result digests and the golden files that hold them.

A statement's outcome is ``(row count, 64-bit digest)``. The digest is
defined here, over values only, so that it does not depend on the Python
build: Python's own ``hash`` of ``None`` is an address and that of a
``str`` changed between releases. Rows are hashed column-wise with numpy
because the wire workload returns tens of thousands of rows a statement.

The digest is order-insensitive (a wrapping sum of row hashes) unless the
statement has an ORDER BY whose keys cannot tie, in which case each row
hash is weighted by its position. Floats are hashed bit for bit: the
workloads avoid SUM/AVG over float columns, whose last bits depend on the
order a plan happens to add them in.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_MIX = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(29)
_NONE = 0x6E6F6E65  # arbitrary constant standing for NULL
_string_hashes: Dict[str, int] = {}

Outcome = Tuple[int, int]


def _hash_value(value) -> int:
    """Slow path for one value of any type (strings, NULLs, mixed columns)."""
    if value is None:
        return _NONE
    if isinstance(value, str):
        cached = _string_hashes.get(value)
        if cached is None:
            cached = _string_hashes[value] = int.from_bytes(
                hashlib.blake2b(value.encode(), digest_size=8).digest(), "little"
            )
        return cached
    if isinstance(value, float):
        return int(np.float64(value).view(np.uint64))
    return int(value) & 0xFFFFFFFFFFFFFFFF


def _column_hashes(column: Sequence) -> np.ndarray:
    if type(column[0]) in (int, float):
        array = np.asarray(column)
        if array.dtype in (np.int64, np.float64):
            return array.view(np.uint64)
    # Strings, or a column holding a NULL (numpy makes it dtype object).
    return np.fromiter(
        map(_hash_value, column), dtype=np.uint64, count=len(column)
    )


def digest_rows(rows: Sequence[Sequence], ordered: bool) -> int:
    """64-bit digest of a result's rows (see module docstring)."""
    if not rows:
        return 0
    hashes = np.zeros(len(rows), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for column in zip(*rows):
            hashes = (hashes ^ _column_hashes(column)) * _MIX
            hashes ^= hashes >> _SHIFT
        if ordered:
            hashes = hashes * (
                np.arange(len(rows), dtype=np.uint64) * np.uint64(2) + np.uint64(1)
            )
        return int(hashes.sum(dtype=np.uint64))


def outcome_of(result, ordered: bool) -> Outcome:
    """``(count, digest)`` of a ``QueryResult`` or ``RemoteResult``."""
    rows = result.rows
    if rows:
        return len(rows), digest_rows(rows, ordered)
    return int(result.affected_rows), 0


# ----------------------------------------------------------------------
# Golden files
# ----------------------------------------------------------------------
def statements_fingerprint(streams: Sequence[Sequence], data: str) -> str:
    """Identifies a generated statement list and the data it ran on; a
    golden taken on another list (edited generator, other scale) or other
    data (edited data generator, another numpy) is ignored, not trusted."""
    digest = hashlib.blake2b(data.encode(), digest_size=8)
    for stream in streams:
        for statement in stream:
            digest.update(statement.sql.encode())
            digest.update(b"\x00")
        digest.update(b"\x01")
    return digest.hexdigest()


def golden_path(workload: str, seed: int, smoke: bool) -> Path:
    suffix = "-smoke" if smoke else ""
    return GOLDEN_DIR / f"{workload}-seed{seed}{suffix}.json"


def load_golden(
    workload: str, seed: int, smoke: bool, fingerprint: str
) -> Optional[List[List[Outcome]]]:
    path = golden_path(workload, seed, smoke)
    if not path.exists():
        return None
    stored = json.loads(path.read_text())
    if stored.get("statements") != fingerprint:
        return None
    return [[tuple(pair) for pair in stream] for stream in stored["outcomes"]]


def save_golden(
    workload: str,
    seed: int,
    smoke: bool,
    fingerprint: str,
    outcomes: Sequence[Sequence[Outcome]],
) -> Path:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    path = golden_path(workload, seed, smoke)
    body = {
        "workload": workload,
        "seed": seed,
        "statements": fingerprint,
        "outcomes": [[list(pair) for pair in stream] for stream in outcomes],
    }
    path.write_text(json.dumps(body, separators=(",", ":")) + "\n")
    return path
