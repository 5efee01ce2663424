"""Streaming wire protocol throughput: v1 JSON vs v2 binary stream.

Fetch a 1,000,000-row SELECT over loopback through the legacy v1 JSON
protocol and through the v2 binary columnar stream, against the *same*
server and engine. The v1 path serializes the whole result as one JSON
frame (bounded by the 32 MiB frame cap — the bench's narrow 3-column rows
keep it under); the v2 path ships a typed header plus raw little-endian
column buffers in bounded chunks. Client-observed throughput (send query
-> all rows decoded) is printed per protocol; the gate is that every row
matches bit-for-bit between the two protocols (1.00 result match) and
that v2, and only v2, streamed.

Every number is real wall-clock on real work and carries no ratio bar:
the regression gate for the wire path is the ``wire_fetch`` workload of
``bench/``.

Run under pytest or standalone:

    python bench_stream_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List

import numpy as np

from repro import Engine, EngineConfig
from repro.schema import make_schema
from repro.server import connect
from repro.server.server import ReproServer
from repro.storage import Database
from repro.types import DataType
from repro.workload import format_table

STREAM_ROWS = 1_000_000
STREAM_SQL = "SELECT id, val, tag FROM points"


def build_points_db(n_rows: int, seed: int) -> Database:
    """One narrow table: int64 id, float64 val, low-cardinality tag.

    Narrow on purpose — at 1M rows the v1 JSON result must stay under
    the 32 MiB frame cap so both protocols can fetch the same result.
    """
    rng = np.random.default_rng(seed)
    db = Database("streamdb")
    db.create_table(
        make_schema(
            "points",
            [
                ("id", DataType.INT),
                ("val", DataType.FLOAT),
                ("tag", DataType.STRING),
            ],
            primary_key="id",
        )
    )
    tags = [f"t{i}" for i in range(16)]
    db.table("points").insert_columns(
        {
            "id": np.arange(n_rows, dtype=np.int64),
            "val": np.round(rng.uniform(0.0, 10_000.0, n_rows), 2),
            "tag": [tags[i] for i in rng.integers(0, 16, n_rows)],
        }
    )
    return db


# ----------------------------------------------------------------------
# v1 JSON vs v2 binary stream on one large result
# ----------------------------------------------------------------------
def run_stream(n_rows: int, seed: int, repeats: int = 2) -> Dict:
    db = build_points_db(n_rows, seed)
    engine = Engine(db, EngineConfig())
    server = ReproServer(engine, port=0).start_in_thread()
    timings: Dict[int, float] = {}
    rows_by_version: Dict[int, List] = {}
    streamed_flags: Dict[int, bool] = {}
    try:
        # Warm the engine once (plan compile, first-touch sampling) so
        # both protocols measure the wire, not engine cold-start.
        with connect(port=server.port) as client:
            client.execute(STREAM_SQL)
        for version in (1, 2):
            with connect(port=server.port, protocol_version=version) as client:
                client.execute(STREAM_SQL)  # per-connection warm fetch
                best = float("inf")
                result = None
                for _ in range(repeats):
                    started = time.perf_counter()
                    result = client.execute(STREAM_SQL)
                    best = min(best, time.perf_counter() - started)
                timings[version] = best
                rows_by_version[version] = result.rows
                streamed_flags[version] = result.streamed
    finally:
        server.stop_from_thread()

    mismatches = sum(
        1 for a, b in zip(rows_by_version[1], rows_by_version[2]) if a != b
    )
    if len(rows_by_version[1]) != len(rows_by_version[2]):
        mismatches += abs(len(rows_by_version[1]) - len(rows_by_version[2]))
    match = 1.0 - mismatches / max(n_rows, 1)
    ratio = timings[1] / timings[2]
    table = format_table(
        ["protocol", "fetch sec", "rows/sec", "streamed", "speedup"],
        [
            [
                f"v{version}",
                f"{timings[version]:.3f}",
                f"{n_rows / timings[version]:,.0f}",
                str(streamed_flags[version]),
                f"{timings[1] / timings[version]:.2f}x",
            ]
            for version in (1, 2)
        ],
    )
    table += (
        f"\n{n_rows:,} rows x 3 columns (int64, float64, dict string); "
        f"result match = {match:.2f}"
    )
    return {
        "timings": timings,
        "ratio": ratio,
        "match": match,
        "streamed": streamed_flags,
        "table": table,
    }


def check_stream(stream: Dict) -> List[str]:
    failures = []
    if stream["match"] < 1.0:
        failures.append(f"result match {stream['match']:.4f} != 1.00")
    if not stream["streamed"][2]:
        failures.append("v2 fetch did not use the binary stream")
    if stream["streamed"][1]:
        failures.append("v1 fetch unexpectedly claimed to stream")
    return failures


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_stream_throughput():
    from conftest import DATA_SEED, emit

    stream = run_stream(STREAM_ROWS, DATA_SEED)
    emit(
        "bench_stream_throughput",
        stream["table"],
        metrics={
            "v1_rows_per_sec": STREAM_ROWS / stream["timings"][1],
            "v2_rows_per_sec": STREAM_ROWS / stream["timings"][2],
            "stream_speedup": stream["ratio"],
            "result_match": stream["match"],
        },
        config={"stream_rows": STREAM_ROWS},
    )
    failures = check_stream(stream)
    assert not failures, "\n".join(failures) + "\n" + stream["table"]


# ----------------------------------------------------------------------
# standalone entry point (CI smoke)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller result for CI",
    )
    parser.add_argument("--rows", type=int, default=STREAM_ROWS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    n_rows = 200_000 if args.smoke else args.rows

    stream = run_stream(n_rows, args.seed)
    print(stream["table"])
    failures = check_stream(stream)
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(f"OK: result match {stream['match']:.2f}, v2 streamed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
