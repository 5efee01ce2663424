"""Shared fixtures: small deterministic databases and engines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro import Database, DataType, Engine, EngineConfig, make_schema
from repro.catalog import SystemCatalog, run_runstats
from repro.storage import DEFAULT_CHUNK_ROWS

# Property tests draw the same examples on every run, whatever ran before
# them and whatever an earlier run left in a .hypothesis/ directory; each
# test's own example count still applies.
settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")


MAKES_MODELS = {
    "Toyota": ["Camry", "Corolla"],
    "Honda": ["Civic"],
    "Ford": ["F150", "Focus"],
}


def build_mini_db(
    n_owners: int = 200,
    n_cars: int = 600,
    seed: int = 7,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> Database:
    """A small car/owner database with a make->model correlation."""
    db = Database(chunk_rows=chunk_rows)
    db.create_table(
        make_schema(
            "owner",
            [
                ("id", DataType.INT),
                ("name", DataType.STRING),
                ("salary", DataType.FLOAT),
                ("city", DataType.STRING),
            ],
            primary_key="id",
        )
    )
    db.create_table(
        make_schema(
            "car",
            [
                ("id", DataType.INT),
                ("ownerid", DataType.INT),
                ("make", DataType.STRING),
                ("model", DataType.STRING),
                ("year", DataType.INT),
                ("price", DataType.FLOAT),
            ],
            primary_key="id",
        )
    )
    rng = np.random.default_rng(seed)
    cities = ["Ottawa", "Toronto", "Waterloo"]
    db.table("owner").insert_columns(
        {
            "id": np.arange(n_owners, dtype=np.int64),
            "name": [f"owner_{i}" for i in range(n_owners)],
            "salary": rng.uniform(1_000, 9_000, n_owners),
            "city": [cities[i % 3] for i in range(n_owners)],
        }
    )
    makes = list(MAKES_MODELS)
    make_values = [makes[int(i)] for i in rng.integers(0, len(makes), n_cars)]
    model_values = [
        MAKES_MODELS[m][i % len(MAKES_MODELS[m])]
        for i, m in enumerate(make_values)
    ]
    db.table("car").insert_columns(
        {
            "id": np.arange(n_cars, dtype=np.int64),
            "ownerid": rng.integers(0, n_owners, n_cars),
            "make": make_values,
            "model": model_values,
            "year": rng.integers(1995, 2008, n_cars),
            "price": rng.uniform(2_000, 50_000, n_cars),
        }
    )
    db.create_hash_index("car", "ownerid")
    db.create_sorted_index("car", "price")
    return db


@pytest.fixture
def mini_db() -> Database:
    return build_mini_db()


@pytest.fixture
def mini_catalog(mini_db) -> SystemCatalog:
    catalog = SystemCatalog()
    for name in mini_db.table_names():
        run_runstats(mini_db, catalog, name, now=1)
    return catalog


@pytest.fixture
def plain_engine(mini_db) -> Engine:
    return Engine(mini_db, EngineConfig.traditional())


@pytest.fixture
def stats_engine(mini_db) -> Engine:
    engine = Engine(mini_db, EngineConfig.traditional())
    engine.collect_general_statistics()
    return engine


@pytest.fixture
def jits_engine(mini_db) -> Engine:
    return Engine(mini_db, EngineConfig.with_jits(s_max=0.5, sample_size=400))
