"""Self-observing plane: zone-map skipping + JIT index advisor payoff.

A skewed multi-tenant workload runs twice over the identical ``events``
table: once on a blind engine (observe off — every query pays a full
scan) and once on a self-observing engine (``observe=True``,
``auto_index=auto``). The table is clustered by ``tenant_id``, so the
hot tenant's rows occupy a narrow run of zones: zone maps refute the hot-tenant predicate for
every other zone and the scan touches a fraction of the table, while
the advisor's fingerprint-derived heat promotes ``tenant_id`` into a
hash index mid-run.

Wall-clock per engine is printed as measured (real work, no modeled
cost) and carries no bar. Bars, all correctness counters:

* zone-map skip rate > 0 (scans pruned, rows skipped);
* the advisor created at least one index, on the hot column;
* every query's result set identical to the blind engine
  (result-match ratio exactly 1.00) — observation is an execution
  strategy, never a semantics change.

Run under pytest (the usual path) or standalone:

    python bench_self_observe.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List

import numpy as np

from repro import Engine, EngineConfig
from repro.rng import make_rng
from repro.schema import make_schema
from repro.storage import Database
from repro.types import DataType
from repro.workload import format_table

N_TENANTS = 64
HOT_TENANT = 7
ROWS_PER_SCALE = 2_000_000  # events rows at scale 1.0
PARALLEL_THRESHOLD = 512
ZONE_ROWS = 1024
ADVISOR_INTERVAL = 16
RESULT_MATCH_BAR = 1.0


def build_events_database(n_rows: int, seed: int) -> Database:
    """One ``events`` table, clustered by tenant_id (the natural layout
    of a tenant-partitioned ingest), values correlated with tenant."""
    rng = make_rng(seed)
    database = Database("eventsdb")
    database.create_table(
        make_schema(
            "events",
            [
                ("id", DataType.INT),
                ("tenant_id", DataType.INT),
                ("kind", DataType.INT),
                ("value", DataType.FLOAT),
                ("ts", DataType.INT),
            ],
            primary_key="id",
        )
    )
    tenants = np.sort(rng.integers(0, N_TENANTS, n_rows))
    database.table("events").insert_columns(
        {
            "id": np.arange(n_rows, dtype=np.int64),
            "tenant_id": tenants.astype(np.int64),
            "kind": rng.integers(0, 8, n_rows).astype(np.int64),
            "value": rng.uniform(0.0, 1000.0, n_rows)
            + tenants * 3.0,  # mild tenant correlation
            "ts": rng.integers(1_000_000, 2_000_000, n_rows).astype(np.int64),
        }
    )
    return database


def build_workload(n_statements: int, seed: int) -> List[str]:
    """~80% of statements probe the hot tenant (varying literals, one
    fingerprint per template); the rest scan value ranges across all
    tenants (zone maps cannot refute them)."""
    rng = make_rng(seed + 17)
    statements = []
    for i in range(n_statements):
        roll = rng.random()
        if roll < 0.5:
            statements.append(
                f"SELECT COUNT(*) FROM events "
                f"WHERE tenant_id = {HOT_TENANT} AND kind = {i % 8}"
            )
        elif roll < 0.8:
            statements.append(
                f"SELECT AVG(value) FROM events "
                f"WHERE tenant_id = {HOT_TENANT} AND value < {400 + i % 300}"
            )
        else:
            statements.append(
                f"SELECT COUNT(*) FROM events WHERE value < {150 + i % 100}"
            )
    return statements


def build_engine(observing: bool, n_rows: int, seed: int) -> Engine:
    db = build_events_database(n_rows, seed)
    config = EngineConfig.traditional()
    config.parallel_threshold_rows = PARALLEL_THRESHOLD
    if observing:
        config.observe = True
        config.auto_index = "auto"
        config.auto_index_interval = ADVISOR_INTERVAL
        config.zone_map_rows = ZONE_ROWS
    return Engine(db, config)


def run_engine(engine: Engine, statements: List[str]) -> Dict:
    """Canonical per-statement results plus timed throughput."""
    results = {}
    started = time.perf_counter()
    for sql in statements:
        rows = engine.execute(sql).rows
        results.setdefault(sql, sorted(map(repr, rows)))
    elapsed = time.perf_counter() - started
    snapshot = engine.stats_snapshot()
    return {
        "results": results,
        "elapsed": elapsed,
        "statements_per_sec": len(statements) / elapsed,
        "observe": snapshot.get("observe", {}),
    }


def run_bench(scale: float, seed: int, n_statements: int) -> Dict:
    n_rows = max(20_000, int(ROWS_PER_SCALE * scale))
    statements = build_workload(n_statements, seed)
    runs = {}
    for label, observing in (("blind", False), ("observed", True)):
        engine = build_engine(observing, n_rows, seed)
        try:
            runs[label] = run_engine(engine, statements)
            if observing:
                runs[label]["fingerprints"] = engine.fingerprint_snapshot(
                    limit=5, sort_by="executions"
                )["fingerprints"]
        finally:
            engine.shutdown()

    distinct = list(runs["blind"]["results"])
    matched = sum(
        runs["observed"]["results"][sql] == runs["blind"]["results"][sql]
        for sql in distinct
    )
    result_match_ratio = matched / len(distinct)
    speedup = (
        runs["observed"]["statements_per_sec"]
        / runs["blind"]["statements_per_sec"]
    )

    obs = runs["observed"]["observe"]
    zm = obs.get("zone_maps", {})
    advisor = obs.get("advisor", {})
    created_on_hot = any(
        entry["action"] in ("create", "advise_create")
        and entry["table"] == "events"
        and entry["column"] == "tenant_id"
        for entry in advisor.get("audit", [])
    )
    rows_table = [
        [
            label,
            f"{run['elapsed']:.3f}",
            f"{run['statements_per_sec']:.1f}",
        ]
        for label, run in runs.items()
    ]
    table = (
        f"Skewed multi-tenant workload: {len(statements)} statements over "
        f"{n_rows} events rows:\n"
        + format_table(["engine", "elapsed_s", "statements/s"], rows_table)
        + f"\nobserved/blind wall-clock throughput: {speedup:.2f}x (no bar)"
        + f"\nresult-match ratio vs blind: {result_match_ratio:.2f} "
        f"(bar {RESULT_MATCH_BAR:.2f})"
        + f"\nzone maps: {zm.get('scans_pruned', 0)}/"
        f"{zm.get('scans_considered', 0)} scans pruned, "
        f"{zm.get('zones_skipped', 0)} zones / "
        f"{zm.get('rows_skipped', 0)} rows skipped"
        + f"\nadvisor: {advisor.get('created', 0)} created, "
        f"{advisor.get('dropped', 0)} dropped "
        f"(hot column indexed: {created_on_hot})"
    )
    return {
        "runs": runs,
        "speedup": speedup,
        "result_match_ratio": result_match_ratio,
        "zone_maps": zm,
        "advisor": advisor,
        "created_on_hot": created_on_hot,
        "table": table,
    }


def check_bars(bench: Dict) -> List[str]:
    failures = []
    if bench["result_match_ratio"] < RESULT_MATCH_BAR:
        failures.append(
            f"result-match ratio {bench['result_match_ratio']:.2f} < "
            f"{RESULT_MATCH_BAR:.2f}"
        )
    if not bench["zone_maps"].get("scans_pruned", 0):
        failures.append("zone maps pruned no scans (skip rate 0)")
    if not bench["zone_maps"].get("rows_skipped", 0):
        failures.append("zone maps skipped no rows")
    if not bench["advisor"].get("created", 0):
        failures.append("index advisor created no index")
    if not bench["created_on_hot"]:
        failures.append("no advisor action on the hot column events.tenant_id")
    return failures


def json_metrics(bench: Dict) -> Dict:
    return {
        "engines": {
            label: {
                "elapsed_s": run["elapsed"],
                "statements_per_sec": run["statements_per_sec"],
            }
            for label, run in bench["runs"].items()
        },
        "speedup_observed": bench["speedup"],
        "result_match_ratio": bench["result_match_ratio"],
        "zone_maps": bench["zone_maps"],
        "advisor": {
            key: bench["advisor"].get(key, 0)
            for key in ("ticks", "created", "dropped", "advised")
        },
        "top_fingerprints": [
            {
                "statement": row["statement"],
                "executions": row["executions"],
                "p50_ms": row["p50_ms"],
                "p95_ms": row["p95_ms"],
            }
            for row in bench["runs"]["observed"].get("fingerprints", [])
        ],
    }


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_self_observe():
    from conftest import DATA_SEED, SCALE, emit

    bench = run_bench(min(SCALE, 0.02), DATA_SEED, n_statements=120)
    emit(
        "bench_self_observe",
        bench["table"],
        metrics=json_metrics(bench),
        config={
            "n_tenants": N_TENANTS,
            "hot_tenant": HOT_TENANT,
            "zone_rows": ZONE_ROWS,
            "advisor_interval": ADVISOR_INTERVAL,
            "parallel_threshold_rows": PARALLEL_THRESHOLD,
        },
    )
    failures = check_bars(bench)
    assert not failures, "\n".join(failures) + "\n" + bench["table"]


# ----------------------------------------------------------------------
# standalone entry point (CI smoke)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scale / short workload: verify skip rate > 0, the "
        "advisor fires on the hot fingerprint and results match",
    )
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--statements", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    scale = 0.01 if args.smoke else args.scale
    n_statements = 60 if args.smoke else args.statements
    bench = run_bench(scale, args.seed, n_statements)
    print(bench["table"])
    failures = check_bars(bench)
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(
        f"OK: {bench['zone_maps'].get('scans_pruned', 0)} scans pruned, "
        f"result-match ratio {bench['result_match_ratio']:.2f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
