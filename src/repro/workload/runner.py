"""Workload runner: execute a statement stream under one engine setting.

Reproduces the four experiment settings of paper Section 4.2:

1. ``NOSTATS``   — JITS disabled, no initial statistics;
2. ``GENERAL``   — JITS disabled, RUNSTATS on all tables up front;
3. ``WORKLOAD``  — JITS disabled, general + column-group statistics for all
                   groups occurring in the workload;
4. ``JITS``      — JITS enabled, no initial statistics.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..engine import Engine, EngineConfig, StatsMode
from .cargen import DEFAULT_SCALE, GeneratorProfile, build_car_database
from .queries import GeneratedWorkload


class Setting(enum.Enum):
    NOSTATS = "nostats"
    GENERAL = "general"
    WORKLOAD = "workload"
    JITS = "jits"


@dataclass
class QueryRecord:
    """Per-statement timing (seconds) plus the deterministic work metric."""

    index: int
    kind: str
    compile_time: float
    execution_time: float
    fetch_time: float
    rows: int
    modeled_cost: float = 0.0  # executed plan re-costed with actuals

    @property
    def total_time(self) -> float:
        return self.compile_time + self.execution_time + self.fetch_time


@dataclass
class WorkloadRunReport:
    setting: str
    records: List[QueryRecord] = field(default_factory=list)
    setup_seconds: float = 0.0  # upfront statistics collection

    def select_records(self) -> List[QueryRecord]:
        return [r for r in self.records if r.kind == "select"]

    def select_totals(self) -> List[float]:
        return [r.total_time for r in self.select_records()]

    def select_modeled_costs(self) -> List[float]:
        """Deterministic plan-quality series (machine-noise free)."""
        return [r.modeled_cost for r in self.select_records()]

    @property
    def total_modeled_cost(self) -> float:
        return sum(self.select_modeled_costs())

    @property
    def elapsed(self) -> float:
        return sum(r.total_time for r in self.records)

    @property
    def avg_compile(self) -> float:
        selects = self.select_records()
        if not selects:
            return 0.0
        return sum(r.compile_time for r in selects) / len(selects)

    @property
    def avg_execution(self) -> float:
        selects = self.select_records()
        if not selects:
            return 0.0
        return sum(r.execution_time for r in selects) / len(selects)

    @property
    def avg_total(self) -> float:
        selects = self.select_records()
        if not selects:
            return 0.0
        return sum(r.total_time for r in selects) / len(selects)


def make_engine_for_setting(
    setting: Setting,
    scale: float = DEFAULT_SCALE,
    data_seed: int = 0,
    workload: Optional[GeneratedWorkload] = None,
    s_max: float = 0.5,
    engine_seed: int = 1,
) -> Engine:
    """Fresh database + engine prepared for one experiment setting."""
    database, _ = build_car_database(scale=scale, seed=data_seed)
    if setting is Setting.JITS:
        config = EngineConfig.with_jits(s_max=s_max)
    else:
        config = EngineConfig.traditional()
    config.seed = engine_seed
    engine = Engine(database, config)
    if setting is Setting.GENERAL:
        engine.apply_stats_mode(StatsMode.GENERAL)
    elif setting is Setting.WORKLOAD:
        statements = workload.selects() if workload is not None else []
        engine.apply_stats_mode(StatsMode.WORKLOAD, statements)
    return engine


def run_workload(
    engine: Engine,
    workload: GeneratedWorkload,
    setting_name: str = "",
    workers: int = 1,
) -> WorkloadRunReport:
    """Execute every statement; returns per-statement timings.

    With ``workers > 1``, consecutive runs of SELECT statements are
    dispatched through ``engine.execute_many`` (each worker thread is
    one client session); DML/DDL stays serialized between the SELECT
    batches, preserving the workload's read/write ordering. Records
    come back in the workload's original statement order either way.
    """
    report = WorkloadRunReport(setting=setting_name)

    def record(index: int, kind: str, result) -> None:
        # The paper's client fetches every row (Table 3's fetch column):
        # decode them so fetch_time below is that cost, not zero.
        result.rows
        report.records.append(
            QueryRecord(
                index=index,
                kind=kind,
                compile_time=result.compile_time,
                execution_time=result.execution_time,
                fetch_time=result.fetch_time,
                rows=result.row_count,
                modeled_cost=result.modeled_execution_cost(),
            )
        )

    statements = list(zip(workload.statements, workload.kinds))
    if workers <= 1:
        for index, (sql, kind) in enumerate(statements):
            record(index, kind, engine.execute(sql))
        return report

    def flush_selects(batch: List[int]) -> None:
        results = engine.execute_many(
            [statements[i][0] for i in batch], workers=workers
        )
        for index, result in zip(batch, results):
            record(index, statements[index][1], result)

    pending: List[int] = []
    for index, (sql, kind) in enumerate(statements):
        if kind == "select":
            pending.append(index)
            continue
        if pending:
            flush_selects(pending)
            pending = []
        record(index, kind, engine.execute(sql))
    if pending:
        flush_selects(pending)
    report.records.sort(key=lambda r: r.index)
    return report


def run_setting(
    setting: Setting,
    workload: GeneratedWorkload,
    scale: float = DEFAULT_SCALE,
    data_seed: int = 0,
    s_max: float = 0.5,
    workers: int = 1,
) -> WorkloadRunReport:
    """Build the engine for a setting, time the setup, run the workload."""
    setup_started = time.perf_counter()
    engine = make_engine_for_setting(
        setting,
        scale=scale,
        data_seed=data_seed,
        workload=workload,
        s_max=s_max,
    )
    setup = time.perf_counter() - setup_started
    report = run_workload(
        engine, workload, setting_name=setting.value, workers=workers
    )
    report.setup_seconds = setup
    return report


def run_all_settings(
    workload: GeneratedWorkload,
    scale: float = DEFAULT_SCALE,
    data_seed: int = 0,
    s_max: float = 0.5,
    settings: Sequence[Setting] = tuple(Setting),
) -> Dict[Setting, WorkloadRunReport]:
    return {
        setting: run_setting(
            setting, workload, scale=scale, data_seed=data_seed, s_max=s_max
        )
        for setting in settings
    }
