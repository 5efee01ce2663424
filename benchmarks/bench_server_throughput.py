"""Network server throughput and fairness.

Part 1 — throughput: queries/sec over loopback at 1/4/8 concurrent
clients against one server, next to an in-process baseline (one session
per client thread) at the same concurrency. Every client statement pays
a calibrated think/latency delay (3x the measured engine work, as in
``bench_concurrent_throughput``): a serving workload's win is overlapping
those delays, so throughput should climb with the client count until the
serialized engine work saturates. The net/in-proc column isolates the
cost of the wire (framing + JSON + loopback round-trips). Every SELECT's
rows are checked against the sequential reference executor — the network
layer must never change answers.

Part 2 — fairness under flood: three well-behaved clients run a
query/think loop while a fourth pipelines requests far past its
per-client in-flight cap. The flooder must be answered with retryable
``BUSY`` frames (bounded queueing), and the well-behaved clients' p95
latency must stay within 2x of their flood-free run (small absolute
floor added for timer noise at sub-millisecond scales).

Run under pytest or standalone:

    python bench_server_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Dict, List, Sequence

from repro import Engine, EngineConfig
from repro.executor import run_reference
from repro.server import ReproServer, connect
from repro.sql import build_query_graph, parse_select
from repro.workload import build_car_database, format_table

CLIENT_COUNTS = [1, 4, 8]
SCALING_BAR = 2.0  # network qps at 4 clients vs 1 client
P95_RATIO_BAR = 2.0
P95_NOISE_FLOOR = 0.050  # seconds; absolute slack on the 2x bar

TEMPLATES = [
    "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND model = 'Camry'",
    "SELECT id, price FROM car WHERE price < 20000 AND year > 1999",
    "SELECT COUNT(*) FROM demographics WHERE city = 'Ottawa' AND salary > 5000",
    "SELECT COUNT(*) FROM accidents WHERE damage > 3000",
    "SELECT make, COUNT(*) FROM car WHERE year >= 1998 GROUP BY make",
    "SELECT AVG(price) FROM car WHERE make = 'Ford'",
]


def build_engine(scale: float, seed: int) -> Engine:
    db, _ = build_car_database(scale=scale, seed=seed)
    return Engine(db, EngineConfig.with_jits(migration_interval=20, plan_cache_enabled=True))


def reference_rows(engine: Engine, statements: Sequence[str]) -> List[List]:
    cache: Dict[str, List] = {}
    out = []
    for sql in statements:
        if sql not in cache:
            block = build_query_graph(parse_select(sql), engine.database)
            cache[sql] = sorted(run_reference(block, engine.database))
        out.append(cache[sql])
    return out


# ----------------------------------------------------------------------
# Part 1: throughput vs. the in-process baseline
# ----------------------------------------------------------------------
def calibrate_think(engine: Engine) -> float:
    """Per-statement client think/latency: 3x the measured engine work."""
    started = time.perf_counter()
    for sql in TEMPLATES * 2:
        engine.execute(sql)
    per_statement = (time.perf_counter() - started) / (2 * len(TEMPLATES))
    return min(max(3.0 * per_statement, 0.004), 0.080)


def serve_over_socket(
    port: int, statements: Sequence[str], n_clients: int, think: float
) -> tuple:
    """Round-robin the statements over ``n_clients`` connections."""
    chunks = [list(enumerate(statements))[i::n_clients]
              for i in range(n_clients)]
    rows: List = [None] * len(statements)
    errors: List = []

    def client_thread(chunk) -> None:
        try:
            with connect(port=port) as client:
                for index, sql in chunk:
                    result = client.execute(sql, busy_retries=20)
                    rows[index] = sorted(result.rows)
                    time.sleep(think)
        except Exception as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=client_thread, args=(c,)) for c in chunks
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors
    return rows, elapsed


def run_inprocess(
    engine: Engine, statements: Sequence[str], n_clients: int, think: float
) -> float:
    """The same client pattern without the wire: threads on sessions."""
    chunks = [list(statements)[i::n_clients] for i in range(n_clients)]

    def client_thread(chunk) -> None:
        session = engine.session()
        for sql in chunk:
            session.execute(sql)
            time.sleep(think)

    threads = [
        threading.Thread(target=client_thread, args=(c,)) for c in chunks
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - started


def run_throughput(scale: float, n_statements: int, seed: int) -> Dict:
    statements = [TEMPLATES[i % len(TEMPLATES)] for i in range(n_statements)]
    think = calibrate_think(build_engine(scale, seed))
    table_rows = []
    net_qps: Dict[int, float] = {}
    for n_clients in CLIENT_COUNTS:
        engine = build_engine(scale, seed)
        want = reference_rows(engine, statements)
        inproc_elapsed = run_inprocess(engine, statements, n_clients, think)

        # Fresh engine so the plan/sample caches warm identically.
        engine = build_engine(scale, seed)
        server = ReproServer(
            engine,
            port=0,
            max_inflight=max(8, n_clients),
            per_client_inflight=4,
        ).start_in_thread()
        try:
            got, net_elapsed = serve_over_socket(
                server.port, statements, n_clients, think
            )
        finally:
            server.stop_from_thread()
        mismatches = sum(1 for g, w in zip(got, want) if g != w)
        assert mismatches == 0, f"{mismatches} wrong results over the wire"

        qps = n_statements / net_elapsed
        net_qps[n_clients] = qps
        table_rows.append(
            [
                str(n_clients),
                f"{qps:.1f}",
                f"{n_statements / inproc_elapsed:.1f}",
                f"{qps / (n_statements / inproc_elapsed):.2f}x",
                f"{qps / net_qps[CLIENT_COUNTS[0]]:.2f}x",
                str(mismatches),
            ]
        )
    table = format_table(
        [
            "clients",
            "net q/s",
            "in-proc q/s",
            "net/in-proc",
            "net scaling",
            "wrong",
        ],
        table_rows,
    )
    table += (
        f"\nclient think/latency = {think * 1000:.2f} ms/statement "
        f"(3x measured engine work); {n_statements} statements"
    )
    return {"qps": net_qps, "table": table}


# ----------------------------------------------------------------------
# Part 2: fairness under a flooding client
# ----------------------------------------------------------------------
def _normal_client(
    port: int,
    n_requests: int,
    think: float,
    latencies: List[float],
    errors: List,
) -> None:
    try:
        with connect(port=port) as client:
            for i in range(n_requests):
                sql = TEMPLATES[i % len(TEMPLATES)]
                started = time.perf_counter()
                client.execute(sql, busy_retries=20)
                latencies.append(time.perf_counter() - started)
                time.sleep(think)
    except Exception as exc:
        errors.append(exc)


def _flooder(port: int, stop: threading.Event, counters: Dict) -> None:
    """Pipeline batches far past the per-client cap, counting BUSY."""
    with connect(port=port) as client:
        while not stop.is_set():
            ids = []
            for _ in range(8):
                rid = client.next_id()
                ids.append(rid)
                client.send_raw(
                    {"type": "query", "id": rid, "sql": TEMPLATES[3]}
                )
            for _ in ids:
                frame = client.recv_raw()
                if frame["type"] == "busy":
                    counters["busy"] += 1
                else:
                    counters["served"] += 1


def p95(samples: List[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def run_fairness(scale: float, n_requests: int, seed: int) -> Dict:
    def measure(with_flood: bool) -> tuple:
        engine = build_engine(scale, seed)
        server = ReproServer(
            engine, port=0, max_inflight=4, per_client_inflight=2
        ).start_in_thread()
        latencies: List[float] = []
        errors: List = []
        counters = {"busy": 0, "served": 0}
        stop = threading.Event()
        flood_thread = None
        try:
            if with_flood:
                flood_thread = threading.Thread(
                    target=_flooder, args=(server.port, stop, counters)
                )
                flood_thread.start()
                time.sleep(0.1)  # let the flood reach steady state
            threads = [
                threading.Thread(
                    target=_normal_client,
                    args=(server.port, n_requests, 0.005, latencies, errors),
                )
                for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stop.set()
            if flood_thread is not None:
                flood_thread.join(timeout=30)
        finally:
            stop.set()
            server.stop_from_thread()
        assert not errors, errors
        return latencies, counters

    solo_latencies, _ = measure(with_flood=False)
    flood_latencies, counters = measure(with_flood=True)
    solo = p95(solo_latencies)
    flooded = p95(flood_latencies)
    bar = max(P95_RATIO_BAR * solo, solo + P95_NOISE_FLOOR)
    table = format_table(
        ["metric", "value"],
        [
            ["normal-client p95 solo", f"{solo * 1000:.2f} ms"],
            ["normal-client p95 under flood", f"{flooded * 1000:.2f} ms"],
            ["p95 ratio", f"{flooded / max(solo, 1e-9):.2f}x (bar 2x)"],
            ["flooder BUSY frames", str(counters["busy"])],
            ["flooder served", str(counters["served"])],
        ],
    )
    return {
        "solo_p95": solo,
        "flood_p95": flooded,
        "bar": bar,
        "busy": counters["busy"],
        "table": table,
    }


def check_fairness(fairness: Dict) -> List[str]:
    failures = []
    if fairness["busy"] < 1:
        failures.append("flooding client never saw a BUSY frame")
    if fairness["flood_p95"] > fairness["bar"]:
        failures.append(
            f"normal-client p95 {fairness['flood_p95'] * 1000:.2f} ms "
            f"exceeds the bar {fairness['bar'] * 1000:.2f} ms"
        )
    return failures


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_server_throughput_and_fairness():
    from conftest import DATA_SEED, SCALE, emit

    # Clients, event loop and executor share one process (and one GIL)
    # here, so wire serialization cost grows with result width and caps
    # apparent network scaling at large scales. Cap the data scale: the
    # benchmark measures front-end concurrency, not JSON bandwidth.
    scale = min(SCALE, 0.01)
    bench = run_throughput(scale, 120, DATA_SEED)
    fairness = run_fairness(scale, 25, DATA_SEED)
    emit(
        "bench_server_throughput",
        f"(run at capped scale={scale}: clients/server share one "
        "process, so wire cost would dominate at larger scales)\n"
        + bench["table"] + "\n\nfairness under a flooding client:\n"
        + fairness["table"],
        metrics={
            "ops_per_sec": {str(c): q for c, q in bench["qps"].items()},
            "scaling_4_clients": bench["qps"][4] / bench["qps"][1],
            "fairness": {
                "solo_p95_ms": fairness["solo_p95"] * 1000,
                "flood_p95_ms": fairness["flood_p95"] * 1000,
                "busy_frames": fairness["busy"],
            },
        },
        config={"capped_scale": scale, "client_counts": CLIENT_COUNTS},
    )
    scaling = bench["qps"][4] / bench["qps"][1]
    assert scaling >= SCALING_BAR, (
        f"4-client network scaling {scaling:.2f}x below the "
        f"{SCALING_BAR}x bar\n" + bench["table"]
    )
    failures = check_fairness(fairness)
    assert not failures, "\n".join(failures) + "\n" + fairness["table"]


# ----------------------------------------------------------------------
# standalone entry point (CI smoke)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scale / short streams for CI",
    )
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--statements", type=int, default=240)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    scale = 0.005 if args.smoke else args.scale
    n_statements = 60 if args.smoke else args.statements
    bench = run_throughput(scale, n_statements, args.seed)
    print(bench["table"])
    fairness = run_fairness(scale, 15 if args.smoke else 40, args.seed)
    print("\nfairness under a flooding client:")
    print(fairness["table"])
    scaling = bench["qps"][4] / bench["qps"][1]
    bar = 1.5 if args.smoke else SCALING_BAR
    if scaling < bar:
        print(f"FAIL: 4-client network scaling {scaling:.2f}x < {bar}x")
        return 1
    failures = check_fairness(fairness)
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(
        f"OK: 4-client network scaling {scaling:.2f}x (bar {bar}x); "
        "per-client fairness holds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
