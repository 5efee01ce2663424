"""JITS samples: one table generation's values and their own masks,
redrawn only once UDI activity since the draw reaches the threshold."""

import gc
import threading
import time
import weakref

import numpy as np

from repro.jits import SampleCache, samplecache
from repro.predicates import LocalPredicate, PredOp, predicate_mask
from repro.storage import fixed_size_sample

from ..conftest import build_mini_db


def make_cache(sample_size=100, seed=0):
    return SampleCache(sample_size, np.random.default_rng(seed))


def pred(column, op=PredOp.GT, value=1999):
    return LocalPredicate("c", column, op, (value,))


def threshold(table):
    return max(1, int(samplecache.SAMPLE_STALENESS * table.row_count))


def set_year(table, n, year=1990):
    """Update the first ``n`` rows' year: ``n`` rows of UDI, one publish."""
    table.update_rows(np.arange(n, dtype=np.int64), {"year": year})


def test_sample_reused_while_table_unchanged(mini_db):
    cache = make_cache()
    car = mini_db.table("car")
    first, hit1 = cache.get(car)
    second, hit2 = cache.get(car.current_snapshot)  # a pinned generation
    assert not hit1 and hit2
    assert first is second
    assert cache.hits == 1 and cache.misses == 1


def test_udi_threshold_invalidates(mini_db):
    cache = make_cache()
    car = mini_db.table("car")
    first, _ = cache.get(car)
    # Touch just under the threshold: still fresh.
    set_year(car, threshold(car) - 1)
    assert cache.get(car) == (first, True)
    # One more modified row reaches it.
    car.update_rows(np.array([599]), {"year": 1990})
    second, hit = cache.get(car)
    assert not hit and second is not first
    assert cache.invalidations == 1


def test_redraw_reads_the_new_generation(mini_db):
    cache = make_cache(sample_size=1000)  # car (600 rows) whole
    car = mini_db.table("car")
    cache.get(car)
    set_year(car, car.row_count)
    sample, hit = cache.get(car)
    assert not hit
    assert (sample.values["year"] == 1990).all()
    assert sample.udi_total == car.udi_total


def test_delete_under_threshold_keeps_sample(mini_db):
    cache = make_cache(sample_size=1000)
    car = mini_db.table("car")
    before, _ = cache.get(car)
    years = before.values["year"].copy()
    car.delete_rows(np.array([0, 1, 2], dtype=np.int64))
    after, hit = cache.get(car)
    assert hit and after is before
    # The deleted rows' values stay: the sample is the draw's generation.
    assert after.size == 600 and np.array_equal(after.values["year"], years)


def test_values_gathered_across_chunks():
    db = build_mini_db(chunk_rows=64)
    car = db.table("car")
    rng = np.random.default_rng(3)
    sample, _ = SampleCache(200, rng).get(car)
    rows = fixed_size_sample(car, 200, np.random.default_rng(3))
    assert len(car.current_snapshot.column("year").chunks) == 10
    for name in car.schema.column_names():
        assert np.array_equal(sample.values[name], car.column_data(name)[rows])


def test_concurrent_misses_draw_once(mini_db, monkeypatch):
    car = mini_db.table("car")
    draws = []

    def slow_sample(table, size, rng):
        draws.append(size)
        time.sleep(0.05)  # hold the draw open while the other thread probes
        return fixed_size_sample(table, size, rng)

    monkeypatch.setattr(samplecache, "fixed_size_sample", slow_sample)
    cache = make_cache(seed=11)
    barrier = threading.Barrier(2)
    got = []

    def probe():
        barrier.wait()
        got.append(cache.get(car))

    threads = [threading.Thread(target=probe) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(draws) == 1
    assert got[0][0] is got[1][0]
    assert sorted(hit for _, hit in got) == [False, True]
    # The generator advanced by exactly one draw.
    reference = np.random.default_rng(11)
    fixed_size_sample(car, 100, reference)
    assert cache.rng.bit_generator.state == reference.bit_generator.state


def test_drop_table_frees_sample(mini_db):
    cache = make_cache()
    sample, _ = cache.get(mini_db.table("owner"))
    sample.mask(mini_db.table("owner"), pred("salary", value=5000.0))
    ref = weakref.ref(sample)
    del sample
    gc.disable()
    try:
        mini_db.drop_table("owner")
        assert ref() is None  # freed by reference counting alone
        assert cache.mask_entries == 0
    finally:
        gc.enable()


def test_mask_memoized_per_sample(mini_db):
    cache = make_cache()
    car = mini_db.table("car")
    sample, _ = cache.get(car)
    p = pred("year")
    mask, hit = sample.mask(car, p)
    assert not hit and len(mask) == sample.size
    again, hit = sample.mask(car, p)
    assert hit and again is mask
    assert cache.mask_entries == 1
    set_year(car, car.row_count)
    fresh, _ = cache.get(car)
    assert fresh is not sample
    assert not fresh.mask(car, p)[1]  # a new draw starts without masks
    assert cache.mask_entries == 1  # the old sample went with its draw


def test_mask_reads_the_draw_generation(mini_db):
    cache = make_cache()
    car = mini_db.table("car")
    drawn = car.current_snapshot
    sample, _ = cache.get(car)
    rows = fixed_size_sample(car, 100, np.random.default_rng(0))
    set_year(car, threshold(car) - 1, year=2020)  # stays fresh
    p = pred("year", PredOp.GT, 2010)
    mask, _ = sample.mask(car, p)
    assert np.array_equal(mask, predicate_mask(drawn, p, rows))
    assert not mask.any()
    assert predicate_mask(car, p, rows).any()  # the current generation moved


def test_mask_dict_stays_within_its_bound(mini_db):
    cache = make_cache(sample_size=10)
    car = mini_db.table("car")
    sample, _ = cache.get(car)
    bound = samplecache.MAX_SAMPLE_MASKS
    predicates = [pred("price", value=float(v)) for v in range(bound + 5)]
    for p in predicates:
        sample.mask(car, p)
    assert len(sample.masks) == bound
    assert predicates[0] not in sample.masks  # the oldest went first
    assert predicates[-1] in sample.masks
