"""Workload runner + experiment settings (miniature end-to-end runs)."""

import pytest

from repro.workload import (
    Setting,
    WorkloadOptions,
    build_car_database,
    generate_workload,
    make_engine_for_setting,
    run_setting,
    run_workload,
)

SCALE = 0.002


@pytest.fixture(scope="module")
def tiny_workload():
    _, profile = build_car_database(scale=SCALE, seed=0)
    return generate_workload(profile, WorkloadOptions(n_statements=40, seed=2))


def test_engines_prepared_per_setting(tiny_workload):
    nostats = make_engine_for_setting(Setting.NOSTATS, scale=SCALE)
    assert nostats.catalog.table_stats("car") is None
    assert not nostats.config.jits.enabled

    general = make_engine_for_setting(Setting.GENERAL, scale=SCALE)
    assert general.catalog.table_stats("car") is not None
    assert general.catalog.groups_with_stats("car") == []

    workload = make_engine_for_setting(
        Setting.WORKLOAD, scale=SCALE, workload=tiny_workload
    )
    assert workload.catalog.table_stats("car") is not None
    assert workload.catalog.groups_with_stats("car")

    jits = make_engine_for_setting(Setting.JITS, scale=SCALE, s_max=0.3)
    assert jits.config.jits.enabled
    assert jits.config.jits.s_max == 0.3
    assert jits.catalog.table_stats("car") is None


def test_run_workload_records_everything(tiny_workload):
    engine = make_engine_for_setting(Setting.GENERAL, scale=SCALE)
    report = run_workload(engine, tiny_workload, "general")
    assert len(report.records) == len(tiny_workload)
    selects = report.select_records()
    assert len(selects) == len(tiny_workload.selects())
    assert all(r.total_time > 0 for r in selects)
    # Rows decode lazily; the runner fetches them like the paper's client.
    assert all(r.fetch_time > 0 for r in selects if r.rows)
    assert any(r.rows for r in selects)
    assert all(r.modeled_cost > 0 for r in selects)
    assert report.elapsed > 0
    assert report.avg_total >= report.avg_compile


def test_run_setting_reports_setup(tiny_workload):
    report = run_setting(
        Setting.WORKLOAD, tiny_workload, scale=SCALE, data_seed=0
    )
    assert report.setting == "workload"
    assert report.setup_seconds > 0
    assert report.total_modeled_cost > 0


def test_jits_setting_runs_clean(tiny_workload):
    report = run_setting(Setting.JITS, tiny_workload, scale=SCALE, data_seed=0)
    assert len(report.records) == len(tiny_workload)


def test_same_results_across_settings(tiny_workload):
    """Every setting must return identical answers for every query."""
    row_counts = {}
    for setting in (Setting.NOSTATS, Setting.GENERAL, Setting.JITS):
        engine = make_engine_for_setting(
            setting, scale=SCALE, workload=tiny_workload
        )
        report = run_workload(engine, tiny_workload, setting.value)
        row_counts[setting] = [r.rows for r in report.records]
    assert row_counts[Setting.NOSTATS] == row_counts[Setting.GENERAL]
    assert row_counts[Setting.NOSTATS] == row_counts[Setting.JITS]
