"""repro — reproduction of "Collecting and Maintaining Just-in-Time
Statistics" (El-Helw, Ilyas, Lau, Markl, Zuzarte; ICDE 2007).

A pure-Python mini relational engine (storage, catalog, SQL, cost-based
optimizer, vectorized executor) carrying a full implementation of JITS:
compile-time query analysis, sensitivity analysis, sampling-based
statistics collection, a maximum-entropy QSS archive, and statistics
migration.

Quickstart::

    from repro import Engine, EngineConfig
    from repro.workload import build_car_database

    db, _ = build_car_database(scale=0.002, seed=0)
    engine = Engine(db, EngineConfig.with_jits(s_max=0.5))
    result = engine.execute(
        "SELECT o.name, c.price FROM car c, owner o "
        "WHERE c.ownerid = o.id AND c.make = 'Toyota' AND c.model = 'Camry'"
    )
    print(result.rows[:5], result.timings)
"""

from .engine import Engine, EngineConfig, QueryResult, StatsMode
from .cancel import CancelToken
from .errors import (
    BindingError,
    CatalogError,
    ConfigError,
    ExecutionError,
    InvalidValueError,
    PlanningError,
    ReproError,
    SqlSyntaxError,
    StatementCancelledError,
    StatisticsError,
    StorageError,
)
from .jits import JITSConfig, JustInTimeStatistics
from .schema import ColumnDef, ForeignKey, TableSchema, make_schema
from .storage import Database, Table
from .types import DataType

__version__ = "1.0.0"

__all__ = [
    "Engine",
    "EngineConfig",
    "StatsMode",
    "QueryResult",
    "JITSConfig",
    "JustInTimeStatistics",
    "Database",
    "Table",
    "DataType",
    "TableSchema",
    "ColumnDef",
    "ForeignKey",
    "make_schema",
    "CancelToken",
    "ReproError",
    "SqlSyntaxError",
    "StatementCancelledError",
    "ConfigError",
    "CatalogError",
    "BindingError",
    "StorageError",
    "InvalidValueError",
    "PlanningError",
    "ExecutionError",
    "StatisticsError",
    "__version__",
]
