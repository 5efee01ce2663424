"""Zone-map synopses: build correctness, refutation soundness, and
differential byte-identity of zone skipping across execution modes."""

import numpy as np
import pytest

from repro import Database, DataType, Engine, EngineConfig, make_schema
from repro.predicates.physical import PhysPredicate, physical_mask
from repro.observe import ZoneMapStore, build_column_zones
from repro.observe.zonemap import ndv_from_bitmap, refuted_zones
from tests.conftest import build_mini_db
from tests.harness.differential import (
    MODES,
    canonical_result,
    run_differential,
    table_state,
)

ZONE_ROWS = 32
THRESHOLD = 64


def observing_config() -> EngineConfig:
    config = EngineConfig.traditional()
    config.observe = True
    config.zone_map_rows = ZONE_ROWS
    config.parallel_threshold_rows = THRESHOLD
    return config


def blind_config() -> EngineConfig:
    config = EngineConfig.traditional()
    config.parallel_threshold_rows = THRESHOLD
    return config


# Clustered (id), correlated (year/price) and unclustered (make) columns;
# interleaved UDI churn bumps versions mid-workload so later scans run
# against invalidated-and-rebuilt maps.
WORKLOAD = [
    "SELECT COUNT(*) FROM car WHERE id < 50",
    "SELECT id FROM car WHERE id BETWEEN 100 AND 140",
    "SELECT COUNT(*) FROM car WHERE id > 550",
    "SELECT COUNT(*) FROM car WHERE make = 'Toyota'",
    "SELECT COUNT(*) FROM car WHERE price < 10000",
    "INSERT INTO car (id, ownerid, make, model, year, price) "
    "VALUES (9001, 1, 'Ford', 'F150', 2001, 111.0), "
    "(9002, 2, 'Honda', 'Civic', 2002, 222.0)",
    "SELECT COUNT(*) FROM car WHERE id > 8000",
    "SELECT COUNT(*) FROM car WHERE id < 50",
    "UPDATE car SET price = 1.0 WHERE id < 10",
    "SELECT COUNT(*) FROM car WHERE price < 5.0",
    "DELETE FROM car WHERE id BETWEEN 580 AND 599",
    "SELECT COUNT(*) FROM car WHERE id BETWEEN 560 AND 620",
    "SELECT id FROM car WHERE id IN (3, 9001, 599)",
    "SELECT COUNT(*) FROM car WHERE year BETWEEN 1996 AND 1999",
]


# ----------------------------------------------------------------------
# Build correctness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ["int", "float"])
def test_build_column_zones_bounds_enclose_every_value(dtype):
    rng = np.random.default_rng(5)
    if dtype == "int":
        data = rng.integers(-(2**60), 2**60, 1000)
    else:
        data = rng.normal(0.0, 1e6, 1000)
    mins, maxs, bitmaps = build_column_zones(data, 64)
    n_zones = -(-len(data) // 64)
    assert len(mins) == len(maxs) == len(bitmaps) == n_zones
    for z in range(n_zones):
        chunk = data[z * 64 : (z + 1) * 64]
        assert mins[z] <= chunk.min()
        assert maxs[z] >= chunk.max()


def test_ndv_sketch_tracks_distinct_count():
    rng = np.random.default_rng(9)
    for true_ndv in (5, 100, 400):
        data = rng.choice(
            rng.normal(0, 1000, true_ndv), size=4000, replace=True
        )
        _, _, bitmaps = build_column_zones(data, 256)
        combined = np.bitwise_or.reduce(bitmaps, axis=0)
        est = ndv_from_bitmap(combined)
        assert 0.6 * true_ndv <= est <= 1.4 * true_ndv


# ----------------------------------------------------------------------
# Refutation soundness (seeded property test)
# ----------------------------------------------------------------------
def _random_pred(rng, data) -> PhysPredicate:
    op = rng.choice(["EQ", "NE", "IN", "LT", "LE", "GT", "GE", "BETWEEN"])
    lo, hi = float(data.min()), float(data.max())
    pick = lambda: float(rng.uniform(lo - 5, hi + 5))  # noqa: E731
    if op == "IN":
        values = tuple(sorted(pick() for _ in range(int(rng.integers(1, 4)))))
    elif op == "BETWEEN":
        a, b = sorted((pick(), pick()))
        values = (a, b)
    else:
        # Mix in exact data values so EQ/NE actually hit sometimes.
        values = (
            float(rng.choice(data)) if rng.random() < 0.5 else pick(),
        )
    return PhysPredicate("c", op, values)


def test_refuted_zones_never_refute_a_matching_row():
    rng = np.random.default_rng(1234)
    for trial in range(200):
        n = int(rng.integers(1, 500))
        zone_rows = int(rng.integers(1, 70))
        if rng.random() < 0.5:
            data = np.sort(rng.integers(0, 50, n)).astype(np.float64)
        else:
            data = rng.normal(0, 10, n)
        mins, maxs, _ = build_column_zones(data, zone_rows)
        pred = _random_pred(rng, data)
        mask = refuted_zones(mins, maxs, pred)
        if mask is None:
            continue
        for z in np.flatnonzero(mask):
            chunk = data[z * zone_rows : (z + 1) * zone_rows]
            assert not physical_mask(chunk, pred).any(), (
                f"trial {trial}: {pred} refuted zone {z} "
                f"containing a matching row"
            )


def test_empty_eq_refutes_all_empty_ne_refutes_none():
    mins = np.array([0.0, 10.0])
    maxs = np.array([5.0, 15.0])
    assert refuted_zones(mins, maxs, PhysPredicate("c", "EQ", empty=True)).all()
    assert refuted_zones(mins, maxs, PhysPredicate("c", "NE", empty=True)) is None


# ----------------------------------------------------------------------
# Differential: skipping on vs off, and across execution modes
# ----------------------------------------------------------------------
def test_zone_skipping_matches_blind_engine_byte_identical():
    blind = Engine(build_mini_db(), blind_config())
    observing = Engine(build_mini_db(), observing_config())
    try:
        for sql in WORKLOAD:
            a = canonical_result(blind.execute(sql))
            b = canonical_result(observing.execute(sql))
            assert a == b, f"observe on/off diverged on: {sql}"
        assert table_state(blind) == table_state(observing)
        zm = observing.parallel.stats()["zone_maps"]
        assert zm["scans_pruned"] > 0
        assert zm["rows_skipped"] > 0
        assert zm["invalidations"] > 0  # UDI churn forced rebuilds
    finally:
        blind.shutdown()
        observing.shutdown()


def test_zone_skipping_differential_across_modes():
    engines = run_differential(
        WORKLOAD,
        build_db=build_mini_db,
        base_config=observing_config,
        modes=MODES,
        parallel_threshold_rows=THRESHOLD,
    )
    try:
        zm = engines["process"].parallel.stats()["zone_maps"]
        assert zm["scans_considered"] > 0
    finally:
        for engine in engines.values():
            engine.shutdown()


# ----------------------------------------------------------------------
# Epoch / identity pinning
# ----------------------------------------------------------------------
def test_drop_create_same_name_fails_identity_check():
    db = Database("t")
    schema = make_schema("t", [("id", DataType.INT)], primary_key="id")
    db.create_table(schema)
    first = db.table("t")
    first.insert_columns({"id": np.arange(100, dtype=np.int64)})

    store = ZoneMapStore(zone_rows=16)
    zmap = store.ensure(first, ["id"])
    assert zmap is not None and store.get_valid(first) is zmap

    db.drop_table("t")
    db.create_table(make_schema("t", [("id", DataType.INT)], primary_key="id"))
    second = db.table("t")
    second.insert_columns({"id": np.arange(100, dtype=np.int64)})

    # Same name, same row count — still a different table object: the
    # stale map must not serve the new incarnation.
    assert not zmap.valid_for(second)
    assert store.get_valid(second) is None
    fresh = store.ensure(second, ["id"])
    assert fresh is not zmap and fresh.valid_for(second)


def test_udi_version_bump_invalidates():
    engine = Engine(build_mini_db(), observing_config())
    try:
        store = engine.observe.zone_maps
        engine.execute("SELECT COUNT(*) FROM car WHERE id < 50")
        table = engine.database.table("car")
        assert store.get_valid(table) is not None
        engine.execute("UPDATE car SET price = 2.0 WHERE id = 1")
        assert store.get_valid(engine.database.table("car")) is None
        # Next predicated scan rebuilds and stays correct.
        result = engine.execute("SELECT COUNT(*) FROM car WHERE price = 2.0")
        assert result.rows[0][0] >= 1
        assert store.stats()["invalidations"] >= 1
    finally:
        engine.shutdown()


def test_drop_table_via_engine_releases_map():
    engine = Engine(build_mini_db(), observing_config())
    try:
        engine.execute(
            "CREATE TABLE scratch (id INT PRIMARY KEY, v INT)"
        )
        engine.execute(
            "INSERT INTO scratch (id, v) VALUES "
            + ", ".join(f"({i}, {i * 2})" for i in range(200))
        )
        engine.execute("SELECT COUNT(*) FROM scratch WHERE id < 40")
        assert engine.observe.zone_maps.stats()["tables"] >= 1
        engine.execute("DROP TABLE scratch")
        engine.execute(
            "CREATE TABLE scratch (id INT PRIMARY KEY, v INT)"
        )
        engine.execute(
            "INSERT INTO scratch (id, v) VALUES "
            + ", ".join(f"({i}, {i * 3})" for i in range(100))
        )
        result = engine.execute("SELECT COUNT(*) FROM scratch WHERE v > 150")
        assert result.rows[0][0] == sum(1 for i in range(100) if i * 3 > 150)
    finally:
        engine.shutdown()
