"""Engine SELECT pipeline: results, timings, plans, feedback."""

import pytest

from repro.errors import BindingError, SqlSyntaxError


def test_select_returns_rows(plain_engine):
    result = plain_engine.execute("SELECT id, name FROM owner WHERE id < 3")
    assert result.statement_type == "select"
    assert result.columns == ["id", "name"]
    assert sorted(result.rows) == [(0, "owner_0"), (1, "owner_1"), (2, "owner_2")]


def test_timings_per_phase(plain_engine):
    result = plain_engine.execute("SELECT id FROM owner")
    assert result.compile_time > 0
    assert result.execution_time > 0
    assert result.fetch_time >= 0
    assert result.total_time == pytest.approx(
        result.compile_time + result.execution_time + result.fetch_time
    )


def test_plan_attached_with_actuals(plain_engine):
    result = plain_engine.execute("SELECT id FROM owner WHERE salary > 100")
    assert result.plan is not None
    assert result.plan.actual_rows == len(result.rows)
    assert "SeqScan" in result.explain() or "IndexScan" in result.explain()


def test_modeled_cost_positive(plain_engine):
    result = plain_engine.execute("SELECT id FROM owner")
    assert result.modeled_execution_cost() > 0


def test_explain_does_not_execute(stats_engine):
    text = stats_engine.explain(
        "SELECT o.name FROM car c, owner o WHERE c.ownerid = o.id"
    )
    assert "Join" in text
    assert "actual" not in text


def test_explain_rejects_dml(stats_engine):
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        stats_engine.explain("DELETE FROM owner")


def test_syntax_error_propagates(plain_engine):
    with pytest.raises(SqlSyntaxError):
        plain_engine.execute("SELEC id FROM owner")


def test_binding_error_propagates(plain_engine):
    with pytest.raises(BindingError):
        plain_engine.execute("SELECT ghost FROM owner")


def test_clock_advances(plain_engine):
    before = plain_engine.clock
    plain_engine.execute("SELECT id FROM owner")
    plain_engine.execute("SELECT id FROM owner")
    assert plain_engine.clock == before + 2


def test_feedback_attached_when_jits_enabled(jits_engine):
    result = jits_engine.execute(
        "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'"
    )
    assert result.jits_report is not None
    assert result.feedback  # estimate/actual comparison recorded
    assert len(jits_engine.jits.history) >= 1


def test_jits_exact_estimates_used(jits_engine, mini_db):
    result = jits_engine.execute(
        "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'"
    )
    record = result.feedback[0]
    assert record.source == "qss-exact"
    # Sampled at 400 rows from 600: close to exact.
    assert record.symmetric_accuracy > 0.8
