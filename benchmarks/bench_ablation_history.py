"""Ablation: the StatHistory accuracy term (s1) vs UDI-only triggering.

Isolates Section 3.3.2's scoring: with ``use_history_score=False`` a table
is only re-sampled when its UDI counter shows churn — estimation errors
revealed by feedback never trigger collection, so new query shapes keep
running on whatever statistics happen to exist.
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


def run_variant(use_history: bool, workload):
    db, _ = build_car_database(scale=SCALE, seed=DATA_SEED)
    config = EngineConfig.with_jits(s_max=0.5, use_history_score=use_history)
    engine = Engine(db, config)
    report = run_workload(engine, workload, f"history={use_history}")
    return engine, report


def test_ablation_history_score(benchmark):
    _, profile = build_car_database(scale=SCALE, seed=DATA_SEED)
    workload = generate_workload(profile, WorkloadOptions(n_statements=N, seed=3))

    def run():
        return run_variant(True, workload), run_variant(False, workload)

    (eng_s1, rep_s1), (eng_udi, rep_udi) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        [
            "s1 + s2 (paper)",
            eng_s1.jits.total_collections,
            round(rep_s1.avg_compile * 1000, 2),
            round(sum(rep_s1.select_modeled_costs()) / 1000, 0),
        ],
        [
            "s2 only (UDI)",
            eng_udi.jits.total_collections,
            round(rep_udi.avg_compile * 1000, 2),
            round(sum(rep_udi.select_modeled_costs()) / 1000, 0),
        ],
    ]
    emit(
        "ablation_history",
        format_table(
            ["variant", "collections", "avg compile ms", "total modeled kcost"],
            rows,
        ),
        metrics={
            "s1_s2": {
                "collections": eng_s1.jits.total_collections,
                "avg_compile_ms": rep_s1.avg_compile * 1000,
                "total_modeled_cost": sum(rep_s1.select_modeled_costs()),
            },
            "s2_only": {
                "collections": eng_udi.jits.total_collections,
                "avg_compile_ms": rep_udi.avg_compile * 1000,
                "total_modeled_cost": sum(rep_udi.select_modeled_costs()),
            },
        },
        config={"n_statements": N},
    )
    # UDI-only triggering collects far less (cheap compiles) but pays in
    # plan quality: feedback-detected estimation errors go unfixed.
    assert eng_udi.jits.total_collections < eng_s1.jits.total_collections
    s1_cost = sum(rep_s1.select_modeled_costs())
    udi_cost = sum(rep_udi.select_modeled_costs())
    assert s1_cost < udi_cost
