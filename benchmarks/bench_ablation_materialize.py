"""Ablation: materializing QSS in the archive vs re-sampling every query.

Isolates Section 3.3.3: with the archive disabled, every query that needs
statistics pays the sampling price again — nothing is reusable between
queries. With the archive on, the sensitivity analysis finds accurate
histograms and stops collecting.

Expected trade-off: the archive cuts *collections* by close to an order of
magnitude at a modest plan-quality price (histograms approximate what a
fresh sample answers exactly). In the paper's DB2 setting each collection
costs seconds of sampling I/O, so fewer collections dominates; in this
in-memory engine a 2000-row sample costs well under a millisecond, so the
wall-clock benefit of reuse is small — the collection count is the metric
that carries the paper's economics (see EXPERIMENTS.md).
"""

from conftest import DATA_SEED, SCALE, emit

from repro import Engine, EngineConfig
from repro.workload import (
    WorkloadOptions,
    build_car_database,
    format_table,
    generate_workload,
    run_workload,
)

N = 300


def run_variant(materialize: bool, workload):
    db, _ = build_car_database(scale=SCALE, seed=DATA_SEED)
    config = EngineConfig.with_jits(s_max=0.5, materialize_enabled=materialize)
    engine = Engine(db, config)
    report = run_workload(engine, workload, f"materialize={materialize}")
    return engine, report


def test_ablation_materialize(benchmark):
    _, profile = build_car_database(scale=SCALE, seed=DATA_SEED)
    workload = generate_workload(profile, WorkloadOptions(n_statements=N, seed=3))

    def run():
        return run_variant(True, workload), run_variant(False, workload)

    (eng_on, rep_on), (eng_off, rep_off) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        [
            "archive ON",
            eng_on.jits.total_collections,
            len(eng_on.jits.archive),
            round(rep_on.avg_compile * 1000, 2),
            round(sum(rep_on.select_modeled_costs()) / 1000, 0),
        ],
        [
            "archive OFF",
            eng_off.jits.total_collections,
            len(eng_off.jits.archive),
            round(rep_off.avg_compile * 1000, 2),
            round(sum(rep_off.select_modeled_costs()) / 1000, 0),
        ],
    ]
    emit(
        "ablation_materialize",
        format_table(
            ["variant", "collections", "archive size", "avg compile ms",
             "total modeled kcost"],
            rows,
        ),
        metrics={
            "archive_on": {
                "collections": eng_on.jits.total_collections,
                "archive_size": len(eng_on.jits.archive),
                "avg_compile_ms": rep_on.avg_compile * 1000,
                "total_modeled_cost": sum(rep_on.select_modeled_costs()),
            },
            "archive_off": {
                "collections": eng_off.jits.total_collections,
                "archive_size": len(eng_off.jits.archive),
                "avg_compile_ms": rep_off.avg_compile * 1000,
                "total_modeled_cost": sum(rep_off.select_modeled_costs()),
            },
        },
        config={"n_statements": N},
    )

    # Without materialization nothing is reusable: every query with
    # predicates triggers sampling again.
    assert eng_off.jits.total_collections > 4 * eng_on.jits.total_collections
    assert len(eng_off.jits.archive) == 0
    assert len(eng_on.jits.archive) > 0
    # Plan quality stays in the same league: archive histograms approximate
    # what a fresh sample answers exactly.
    on_cost = sum(rep_on.select_modeled_costs())
    off_cost = sum(rep_off.select_modeled_costs())
    assert on_cost < off_cost * 1.5
