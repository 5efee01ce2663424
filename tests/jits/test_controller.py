"""The JITS controller end to end (compile hook, feedback, migration)."""

import numpy as np
import pytest

from repro.catalog import SystemCatalog
from repro.executor.feedback import FeedbackRecord
from repro.jits import JITSConfig, JustInTimeStatistics
from repro.predicates import LocalPredicate, PredOp, PredicateGroup
from repro.sql import build_query_graph, parse_select

SQL = (
    "SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id "
    "AND c.make = 'Toyota' AND c.model = 'Camry'"
)


def make_jits(db, **kwargs):
    config = JITSConfig(enabled=True, sample_size=300, **kwargs)
    return JustInTimeStatistics(
        db, SystemCatalog(), config, np.random.default_rng(0)
    )


def block_for(db, sql=SQL):
    return build_query_graph(parse_select(sql), db)


def test_disabled_returns_nothing(mini_db):
    jits = JustInTimeStatistics(
        mini_db, SystemCatalog(), JITSConfig(enabled=False)
    )
    profile, report = jits.before_optimize(block_for(mini_db), now=1)
    assert profile is None
    assert report.candidates == []


def test_always_collect_bypasses_sensitivity(mini_db):
    jits = make_jits(mini_db, always_collect=True)
    profile, report = jits.before_optimize(block_for(mini_db), now=1)
    assert profile is not None
    assert report.collection.tables_sampled == ["car"]
    assert report.collection.groups_computed == 3
    # always_collect also materializes everything representable.
    assert len(jits.archive) >= 1


def test_first_query_collects_under_default_smax(mini_db):
    jits = make_jits(mini_db, s_max=0.5)
    profile, report = jits.before_optimize(block_for(mini_db), now=1)
    assert profile is not None
    assert "car" in report.collection.tables_sampled


def test_smax_one_collects_nothing(mini_db):
    jits = make_jits(mini_db, s_max=1.0)
    profile, report = jits.before_optimize(block_for(mini_db), now=1)
    assert profile is None
    assert report.collection.tables_sampled == []
    # s_max=1 behaves like a traditional system: not even cardinalities.
    assert jits.catalog.table_stats("car") is None


def test_table_cardinalities_refreshed(mini_db):
    jits = make_jits(mini_db, s_max=0.5)
    jits.before_optimize(block_for(mini_db), now=1)
    stats = jits.catalog.table_stats("owner")
    assert stats is not None
    assert stats.cardinality == mini_db.table("owner").row_count


def test_feedback_populates_history(mini_db):
    jits = make_jits(mini_db)
    group = PredicateGroup.of(
        LocalPredicate("c", "make", PredOp.EQ, ("Toyota",))
    )
    record = FeedbackRecord(
        table="car",
        group=group,
        statlist=(("make",),),
        source="catalog",
        estimated_selectivity=0.1,
        actual_selectivity=0.3,
    )
    jits.after_execute([record], now=2)
    entries = jits.history.entries_for_group("car", ("make",))
    assert len(entries) == 1
    assert entries[0].errorfactor == pytest.approx(1 / 3)


def test_materialize_disabled_keeps_archive_empty(mini_db):
    jits = make_jits(mini_db, always_collect=True, materialize_enabled=False)
    profile, report = jits.before_optimize(block_for(mini_db), now=1)
    assert profile is not None
    assert report.collection.groups_materialized == 0
    assert len(jits.archive) == 0


def test_migration_tick_interval(mini_db):
    jits = make_jits(mini_db, always_collect=True, migration_interval=10)
    jits.before_optimize(block_for(mini_db), now=1)
    assert jits.tick(now=5) == 0  # before the interval
    migrated = jits.tick(now=12)
    assert migrated >= 1
    assert jits.tick(now=13) == 0  # interval restarts


def test_migration_disabled(mini_db):
    jits = make_jits(mini_db, always_collect=True, migration_interval=0)
    jits.before_optimize(block_for(mini_db), now=1)
    assert jits.tick(now=1000) == 0


def test_repeat_identical_query_stops_collecting(mini_db):
    """Collection decays for a repeated query: the first compile samples
    but cannot materialize (no history yet — the paper's Alg. 4 needs
    usage evidence), the second materializes, the third skips collection
    because the archive now answers the group accurately."""
    jits = make_jits(mini_db, s_max=0.4)

    def run(now):
        profile, report = jits.before_optimize(block_for(mini_db), now=now)
        if profile is None:
            return report
        full = max(
            (g for c in report.candidates for g in c.groups),
            key=lambda g: g.size,
        )
        sel = profile.selectivity("car", full)
        if sel is not None:
            jits.after_execute(
                [
                    FeedbackRecord(
                        table="car",
                        group=full,
                        statlist=(full.columns(),),
                        source="qss-exact",
                        estimated_selectivity=max(sel, 1e-6),
                        actual_selectivity=max(sel, 1e-6),
                    )
                ],
                now=now,
            )
        return report

    report1 = run(now=1)
    assert report1.collection.tables_sampled  # cold start: sample
    assert report1.collection.groups_materialized == 0  # bootstrap lag

    report2 = run(now=2)
    assert report2.collection.groups_materialized >= 1  # history justifies it

    report3 = run(now=3)
    assert report3.collection.tables_sampled == []  # archive answers now
