"""Streaming wire protocol throughput and acceptor fleet scaling.

Part 1 — stream throughput: fetch a 1,000,000-row SELECT over loopback
through the legacy v1 JSON protocol and through the v2 binary columnar
stream, against the *same* server and engine. The v1 path serializes the
whole result as one JSON frame (bounded by the 32 MiB frame cap — the
bench's narrow 3-column rows keep it under); the v2 path ships a typed
header plus raw little-endian column buffers in bounded chunks. Client-
observed throughput (send query -> all rows decoded) is printed per
protocol; the gate is that every row matches bit-for-bit between the two
protocols (1.00 result match) and that v2, and only v2, streamed.

Part 2 — acceptor fleet: aggregate QPS through an ``AcceptorGroup``
fleet at 1 vs 4 acceptor processes, each deliberately narrow
(``max_inflight=1``, one executor thread). QPS and the served split are
printed; the gate is that every COUNT matches the single-engine
reference and no acceptor process is left running. Skipped where
``SO_REUSEPORT`` is missing.

Every number is real wall-clock on real work and carries no ratio bar:
the regression gate for the wire path is the ``wire_fetch`` workload of
``bench/``.

Run under pytest or standalone:

    python bench_stream_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import socket
import sys
import threading
import time
from typing import Dict, List

import numpy as np

from repro import Engine, EngineConfig
from repro.schema import make_schema
from repro.server import AcceptorGroup, connect
from repro.server.server import ReproServer
from repro.storage import Database
from repro.types import DataType
from repro.workload import format_table

STREAM_ROWS = 1_000_000
STREAM_SQL = "SELECT id, val, tag FROM points"

FLEET_COUNTS = [1, 4]
FLEET_CLIENTS = 12
FLEET_QUERIES_PER_CLIENT = 4
FLEET_TABLE_ROWS = 4_000
FLEET_SQL = "SELECT COUNT(*) FROM points WHERE val >= 0"


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
# Part 1: v1 JSON vs v2 binary stream on one large result
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
# Part 2: aggregate QPS at 1 vs 4 acceptor processes
# ----------------------------------------------------------------------
def _fleet_clients(
    port: int, n_clients: int, queries_each: int
) -> tuple:
    """Persistent connections hammering the fleet; returns (rows, sec)."""
    results: List = [None] * (n_clients * queries_each)
    errors: List = []

    def client_thread(index: int) -> None:
        try:
            with connect(port=port) as client:
                for q in range(queries_each):
                    result = client.execute(
                        FLEET_SQL, busy_retries=500, busy_backoff=0.005
                    )
                    results[index * queries_each + q] = result.rows
        except Exception as exc:  # surfaced by the caller's assert
            errors.append(exc)

    threads = [
        threading.Thread(target=client_thread, args=(i,))
        for i in range(n_clients)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors
    return results, elapsed


def run_fleet(
    seed: int,
    n_clients: int = FLEET_CLIENTS,
    queries_each: int = FLEET_QUERIES_PER_CLIENT,
) -> Dict:
    db = build_points_db(FLEET_TABLE_ROWS, seed)
    want = Engine(db, EngineConfig()).execute(FLEET_SQL).rows
    total_queries = n_clients * queries_each
    qps: Dict[int, float] = {}
    mismatches = 0
    served: Dict[int, List[int]] = {}
    for n_acceptors in FLEET_COUNTS:
        group = AcceptorGroup(
            lambda: Engine(db, EngineConfig()),
            n_acceptors=n_acceptors,
            port=0,
            max_inflight=1,
            per_client_inflight=1,
            workers=1,
        ).start()
        try:
            results, elapsed = _fleet_clients(
                group.port, n_clients, queries_each
            )
            snapshot = group.snapshot()
        finally:
            group.stop()
        assert group.alive() == 0, "acceptor processes left running"
        qps[n_acceptors] = total_queries / elapsed
        mismatches += sum(1 for rows in results if rows != want)
        served[n_acceptors] = snapshot["served"]
    base = qps[FLEET_COUNTS[0]]
    table = format_table(
        ["acceptors", "agg q/s", "scaling", "served split", "wrong"],
        [
            [
                str(n),
                f"{qps[n]:.1f}",
                f"{qps[n] / base:.2f}x",
                "/".join(str(s) for s in served[n]),
                str(mismatches),
            ]
            for n in FLEET_COUNTS
        ],
    )
    table += (
        f"\n{n_clients} clients x {queries_each} statements; "
        "each acceptor capped at 1 in-flight statement"
    )
    return {
        "qps": qps,
        "scaling": qps[FLEET_COUNTS[-1]] / base,
        "mismatches": mismatches,
        "served": served,
        "table": table,
    }


def check_fleet(fleet: Dict) -> List[str]:
    if fleet["mismatches"]:
        return [f"{fleet['mismatches']} wrong COUNT results through the fleet"]
    return []


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_stream_and_acceptor_throughput():
    from conftest import DATA_SEED, emit

    stream = run_stream(STREAM_ROWS, DATA_SEED)
    have_reuseport = hasattr(socket, "SO_REUSEPORT")
    fleet = run_fleet(DATA_SEED) if have_reuseport else None

    text = stream["table"]
    metrics = {
        "v1_rows_per_sec": STREAM_ROWS / stream["timings"][1],
        "v2_rows_per_sec": STREAM_ROWS / stream["timings"][2],
        "stream_speedup": stream["ratio"],
        "result_match": stream["match"],
    }
    if fleet is not None:
        text += "\n\nacceptor fleet scaling:\n" + fleet["table"]
        metrics["fleet_qps"] = {str(n): q for n, q in fleet["qps"].items()}
        metrics["acceptor_scaling"] = fleet["scaling"]
    emit(
        "bench_stream_throughput",
        text,
        metrics=metrics,
        config={
            "stream_rows": STREAM_ROWS,
            "fleet_counts": FLEET_COUNTS,
            "fleet_clients": FLEET_CLIENTS,
            "so_reuseport": have_reuseport,
        },
    )
    failures = check_stream(stream)
    if fleet is not None:
        failures += check_fleet(fleet)
    assert not failures, "\n".join(failures) + "\n" + text


# ----------------------------------------------------------------------
# standalone entry point (CI smoke)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller result / fewer statements for CI",
    )
    parser.add_argument("--rows", type=int, default=STREAM_ROWS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    n_rows = 200_000 if args.smoke else args.rows

    stream = run_stream(n_rows, args.seed)
    print(stream["table"])
    failures = check_stream(stream)

    if hasattr(socket, "SO_REUSEPORT"):
        fleet = run_fleet(
            args.seed, queries_each=2 if args.smoke else FLEET_QUERIES_PER_CLIENT
        )
        print("\nacceptor fleet scaling:")
        print(fleet["table"])
        failures += check_fleet(fleet)
    else:
        print("\nacceptor fleet scaling skipped: no SO_REUSEPORT")

    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(f"OK: result match {stream['match']:.2f}, v2 streamed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
