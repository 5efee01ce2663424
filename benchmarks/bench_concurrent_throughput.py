"""Multi-client throughput: one engine, N concurrent client sessions.

Models a serving workload: every client statement costs the engine's own
compile/execute work plus a fixed client latency (network round-trip +
client think time, simulated with ``sleep``). A sequential server pays
``work + latency`` per statement; with N worker sessions the latencies
overlap — and the engine's numpy kernels release the GIL — so throughput
(queries/sec) climbs until the serialized engine work saturates.

The latency is calibrated to 3x the measured per-statement engine work,
so the expected speedup at 4 workers is ~(w + 3w) / max(w, 3w/4) = 4x;
the acceptance bar asserts >= 2x. Every concurrent run's per-statement
rows are checked against the sequential reference executor — concurrency
must never change answers.

Run under pytest (the usual path) or standalone:

    python bench_concurrent_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Tuple

from repro import Engine, EngineConfig
from repro.executor import run_reference
from repro.sql import build_query_graph, parse_select
from repro.workload import build_car_database, format_table

WORKER_COUNTS = [1, 2, 4, 8]
SPEEDUP_BAR = 2.0  # at 4 workers vs sequential

TEMPLATES = [
    "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND model = 'Camry'",
    "SELECT id, price FROM car WHERE price < 20000 AND year > 1999",
    "SELECT COUNT(*) FROM demographics WHERE city = 'Ottawa' AND salary > 5000",
    "SELECT COUNT(*) FROM accidents WHERE damage > 3000",
    "SELECT o.id, COUNT(*) FROM owner o, car c WHERE c.ownerid = o.id "
    "AND c.year > 2000 GROUP BY o.id",
    "SELECT make, COUNT(*) FROM car WHERE year >= 1998 GROUP BY make",
]


def build_engine(scale: float, seed: int) -> Engine:
    db, _ = build_car_database(scale=scale, seed=seed)
    return Engine(db, EngineConfig.with_jits(migration_interval=20, plan_cache_enabled=True))


def statement_stream(n_statements: int) -> List[str]:
    return [TEMPLATES[i % len(TEMPLATES)] for i in range(n_statements)]


def calibrate_latency(engine: Engine, statements: Sequence[str]) -> float:
    """Per-statement client latency: 3x the measured engine work."""
    probe = statements[: min(len(statements), 2 * len(TEMPLATES))]
    started = time.perf_counter()
    for sql in probe:
        engine.execute(sql)
    per_statement = (time.perf_counter() - started) / len(probe)
    return min(max(3.0 * per_statement, 0.002), 0.025)


def serve(
    engine: Engine,
    statements: Sequence[str],
    workers: int,
    latency: float,
) -> Tuple[List[List], float]:
    """Serve the statement stream with ``workers`` client sessions.

    Returns (per-statement sorted row lists, elapsed seconds); rows come
    back aligned with the input stream order.
    """
    indexed = list(enumerate(statements))
    streams = [indexed[i::workers] for i in range(workers)]

    def client(stream):
        session = engine.session()
        out = []
        stamps = []
        for index, sql in stream:
            stmt_started = time.perf_counter()
            result = session.execute(sql)
            stamps.append(time.perf_counter() - stmt_started)
            out.append((index, sorted(result.rows)))
            time.sleep(latency)
        return out, stamps

    started = time.perf_counter()
    if workers == 1:
        batches = [client(indexed)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(client, streams))
    elapsed = time.perf_counter() - started
    rows: List[List] = [None] * len(statements)  # type: ignore[list-item]
    latencies: List[float] = []
    for batch, stamps in batches:
        latencies.extend(stamps)
        for index, sorted_rows in batch:
            rows[index] = sorted_rows
    return rows, elapsed, latencies


def reference_rows(engine: Engine, statements: Sequence[str]) -> List[List]:
    cache: Dict[str, List] = {}
    out = []
    for sql in statements:
        if sql not in cache:
            block = build_query_graph(parse_select(sql), engine.database)
            cache[sql] = sorted(run_reference(block, engine.database))
        out.append(cache[sql])
    return out


def run_bench(scale: float, n_statements: int, seed: int) -> Dict:
    engine = build_engine(scale, seed)
    statements = statement_stream(n_statements)
    latency = calibrate_latency(engine, statements)
    want = reference_rows(engine, statements)

    throughput: Dict[int, float] = {}
    percentiles: Dict[int, Dict[str, float]] = {}
    rows = []
    for workers in WORKER_COUNTS:
        got, elapsed, latencies = serve(engine, statements, workers, latency)
        mismatches = sum(1 for g, w in zip(got, want) if g != w)
        qps = n_statements / elapsed
        throughput[workers] = qps
        ordered = sorted(latencies)
        percentiles[workers] = {
            "p50_ms": ordered[len(ordered) // 2] * 1000,
            "p95_ms": ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
            * 1000,
        }
        rows.append(
            [
                str(workers),
                f"{elapsed:.3f}",
                f"{qps:.1f}",
                f"{qps / throughput[1]:.2f}x",
                str(mismatches),
            ]
        )
        assert mismatches == 0, (
            f"{mismatches} statements returned wrong rows at "
            f"workers={workers}"
        )
    table = format_table(
        ["workers", "elapsed_s", "queries/s", "speedup", "wrong_results"],
        rows,
    )
    table += (
        f"\nclient latency = {latency * 1000:.2f} ms/statement "
        f"(3x measured engine work); {n_statements} statements"
    )
    return {
        "throughput": throughput,
        "percentiles": percentiles,
        "table": table,
        "latency": latency,
    }


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_concurrent_throughput():
    from conftest import DATA_SEED, SCALE, N_STATEMENTS, emit

    n_statements = min(N_STATEMENTS, 240)
    bench = run_bench(SCALE, n_statements, DATA_SEED)
    emit(
        "bench_concurrent_throughput",
        bench["table"],
        metrics={
            "ops_per_sec": {str(w): q for w, q in bench["throughput"].items()},
            "statement_latency": {
                str(w): p for w, p in bench["percentiles"].items()
            },
            "speedup_4_workers": bench["throughput"][4] / bench["throughput"][1],
            "client_latency_ms": bench["latency"] * 1000,
        },
        config={"worker_counts": WORKER_COUNTS, "n_statements": n_statements},
    )
    speedup = bench["throughput"][4] / bench["throughput"][1]
    assert speedup >= SPEEDUP_BAR, (
        f"4-worker speedup {speedup:.2f}x below the {SPEEDUP_BAR}x bar\n"
        + bench["table"]
    )


# ----------------------------------------------------------------------
# standalone entry point (CI smoke)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scale / short stream: verify result-equivalence and "
        "that throughput improves, without the full 2x bar",
    )
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--statements", type=int, default=240)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    scale = 0.005 if args.smoke else args.scale
    n_statements = 48 if args.smoke else args.statements
    bench = run_bench(scale, n_statements, args.seed)
    print(bench["table"])
    speedup = bench["throughput"][4] / bench["throughput"][1]
    bar = 1.2 if args.smoke else SPEEDUP_BAR
    if speedup < bar:
        print(f"FAIL: 4-worker speedup {speedup:.2f}x < {bar}x")
        return 1
    print(f"OK: 4-worker speedup {speedup:.2f}x (bar {bar}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
