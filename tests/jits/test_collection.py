"""Statistics collection: sampled selectivities and materialization."""

import numpy as np
import pytest

from repro.jits import (
    QSSArchive,
    SampleCache,
    StatisticsCollector,
    TableDecision,
)
from repro.predicates import (
    LocalPredicate,
    PredOp,
    PredicateGroup,
    count_matches,
    group_region,
)


def pred(column, op, *values):
    return LocalPredicate("c", column, op, values)


def make_collector(db, archive, sample_size, seed):
    sample_cache = SampleCache(sample_size, np.random.default_rng(seed))
    return StatisticsCollector(db, archive, sample_cache)


def collect(db, groups, materialize=(), sample_size=400, table="car"):
    archive = QSSArchive(db)
    collector = make_collector(db, archive, sample_size, seed=3)
    decision = TableDecision(
        table=table, collect=True, score=1.0, s1=1.0, s2=1.0,
        materialize=list(materialize),
    )
    last = {}
    profile, report = collector.collect(
        {table: decision}, {table: groups}, now=5, last_collection_udi=last
    )
    return profile, report, archive, last


def test_profile_has_all_groups(mini_db):
    groups = [
        PredicateGroup.of(pred("make", PredOp.EQ, "Toyota")),
        PredicateGroup.of(pred("year", PredOp.GT, 2000)),
        PredicateGroup.of(
            pred("make", PredOp.EQ, "Toyota"), pred("year", PredOp.GT, 2000)
        ),
    ]
    profile, report, _, _ = collect(mini_db, groups)
    assert report.groups_computed == 3
    assert profile.n_groups == 3
    for group in groups:
        assert profile.selectivity("car", group) is not None


def test_sampled_selectivity_close_to_truth(mini_db):
    table = mini_db.table("car")
    group = PredicateGroup.of(
        pred("make", PredOp.EQ, "Toyota"), pred("model", PredOp.EQ, "Camry")
    )
    profile, _, _, _ = collect(mini_db, [group], sample_size=600)
    actual = count_matches(table, group.predicates) / table.row_count
    assert profile.selectivity("car", group) == pytest.approx(actual, abs=0.05)


def test_full_table_sample_is_exact(mini_db):
    table = mini_db.table("car")
    group = PredicateGroup.of(pred("year", PredOp.LE, 2000))
    profile, _, _, _ = collect(mini_db, [group], sample_size=10**6)
    actual = count_matches(table, group.predicates) / table.row_count
    assert profile.selectivity("car", group) == pytest.approx(actual)


def test_cardinality_recorded(mini_db):
    group = PredicateGroup.of(pred("make", PredOp.EQ, "Toyota"))
    profile, _, _, _ = collect(mini_db, [group])
    assert profile.cardinality("car") == mini_db.table("car").row_count


def test_udi_snapshot_updated(mini_db):
    group = PredicateGroup.of(pred("make", PredOp.EQ, "Toyota"))
    _, _, _, last = collect(mini_db, [group])
    assert last["car"] == mini_db.table("car").udi_total


def test_materialization_creates_archive_histograms(mini_db):
    single = PredicateGroup.of(pred("year", PredOp.GT, 2000))
    joint = PredicateGroup.of(
        pred("make", PredOp.EQ, "Toyota"), pred("year", PredOp.GT, 2000)
    )
    _, report, archive, _ = collect(
        mini_db, [single, joint], materialize=[single, joint]
    )
    assert report.groups_materialized == 2
    assert archive.has("car", ["year"])
    assert archive.has("car", ["make", "year"])


def test_materialized_joint_includes_marginal_constraints(mini_db):
    """The Figure 2 behaviour: the same sample feeds the marginals into
    the joint histogram too."""
    table = mini_db.table("car")
    single = PredicateGroup.of(pred("year", PredOp.GT, 2000))
    joint = PredicateGroup.of(
        pred("make", PredOp.EQ, "Toyota"), pred("year", PredOp.GT, 2000)
    )
    _, _, archive, _ = collect(
        mini_db, [single, joint], materialize=[joint], sample_size=10**6
    )
    hist = archive.lookup("car", ("make", "year"))
    assert hist is not None
    # The marginal (year > 2000 over all makes) is itself a constraint.
    assert len(hist.constraints) >= 3  # total + joint + marginal


def test_unrepresentable_groups_not_materialized(mini_db):
    ne_group = PredicateGroup.of(pred("year", PredOp.NE, 2000))
    profile, report, archive, _ = collect(
        mini_db, [ne_group], materialize=[ne_group]
    )
    assert report.groups_materialized == 0
    assert len(archive) == 0
    # But its exact selectivity is still in the profile for this query.
    assert profile.selectivity("car", ne_group) is not None


def test_skipped_tables_not_sampled(mini_db):
    archive = QSSArchive(mini_db)
    collector = make_collector(mini_db, archive, 100, seed=0)
    decision = TableDecision(
        table="car", collect=False, score=0.0, s1=0.0, s2=0.0
    )
    group = PredicateGroup.of(pred("make", PredOp.EQ, "Toyota"))
    profile, report = collector.collect(
        {"car": decision}, {"car": [group]}, now=1
    )
    assert report.tables_sampled == []
    assert profile.n_groups == 0
