"""Ablation: maximum-entropy calibration vs naive bucket overwrites.

Isolates Section 3.4: when a new observation arrives, the max-entropy
update reconciles *all* retained facts (joint + marginals + cardinality);
the naive variant only rescales the newest fact, so earlier knowledge
drifts away. We measure estimation error of the archive histogram on
correlated predicate regions after a stream of observations.
"""

import numpy as np
from conftest import DATA_SEED, SCALE, emit

from repro.histograms import Region
from repro.jits import QSSArchive
from repro.predicates import (
    LocalPredicate,
    PredOp,
    PredicateGroup,
    count_matches,
    group_region,
)
from repro.workload import build_car_database, format_table


def pred(column, op, *values):
    return LocalPredicate("a", column, op, values)


def observation_stream(db):
    """Joint + marginal facts about (severity, damage) on ACCIDENTS,
    exact counts from the data (as a JITS sample would deliver)."""
    table = db.table("accidents")
    cases = []
    for severity in (1, 2, 3, 4, 5):
        for damage in (1_000, 5_000, 10_000, 20_000):
            cases.append(
                PredicateGroup.of(
                    pred("severity", PredOp.GE, severity),
                    pred("damage", PredOp.GT, damage),
                )
            )
    return table, cases


def run_variant(calibrate: bool, db):
    table, cases = observation_stream(db)
    archive = QSSArchive(db, calibrate=calibrate)
    total = table.row_count
    for now, group in enumerate(cases):
        columns, region = group_region(table, group)
        count = count_matches(table, group.predicates)
        archive.observe(table.name, columns, region, count, total, now=now)
        # One calibration per fact, so the naive variant applies each
        # newest fact in turn rather than only the last of a batch.
        archive.recalibrate_dirty()
    # Evaluate on held-out regions (values between observed boundaries).
    errors = []
    for severity in (2, 3, 4):
        for damage in (3_000, 8_000, 15_000):
            group = PredicateGroup.of(
                pred("severity", PredOp.GE, severity),
                pred("damage", PredOp.GT, damage),
            )
            columns, region = group_region(table, group)
            actual = count_matches(table, group.predicates) / total
            estimate = archive.lookup(table.name, columns).estimate_selectivity(
                region
            )
            ratio = max(estimate, 1e-6) / max(actual, 1e-6)
            errors.append(max(ratio, 1.0 / ratio))
    return float(np.exp(np.mean(np.log(errors))))  # geometric mean error


def test_ablation_maxent(benchmark):
    db, _ = build_car_database(scale=SCALE, seed=DATA_SEED)

    def run():
        return run_variant(True, db), run_variant(False, db)

    with_maxent, without_maxent = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_maxent",
        format_table(
            ["variant", "geo-mean estimation error (x)"],
            [
                ["max-entropy calibration", round(with_maxent, 3)],
                ["naive newest-only", round(without_maxent, 3)],
            ],
        ),
        metrics={
            "geo_mean_error_maxent": with_maxent,
            "geo_mean_error_naive": without_maxent,
        },
    )
    # Reconciling all retained facts must not hurt, and should help.
    assert with_maxent <= without_maxent * 1.02
    # And the calibrated archive is a genuinely good estimator.
    assert with_maxent < 1.8
