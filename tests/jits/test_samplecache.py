"""Sample and predicate-mask caches (the compilation fast path)."""

import numpy as np
import pytest

from repro.jits import MaskCache, SampleCache
from repro.predicates import LocalPredicate, PredOp


def make_cache(mini_db, sample_size=100, staleness=0.05, seed=0):
    return SampleCache(
        mini_db, sample_size, np.random.default_rng(seed), staleness=staleness
    )


def pred(column, op=PredOp.GT, value=1999):
    return LocalPredicate("c", column, op, (value,))


# ----------------------------------------------------------------------
# SampleCache
# ----------------------------------------------------------------------
def test_sample_reused_while_table_unchanged(mini_db):
    cache = make_cache(mini_db)
    rows1, epoch1, hit1 = cache.get("car")
    rows2, epoch2, hit2 = cache.get("CAR")  # case-insensitive key
    assert not hit1 and hit2
    assert epoch1 == epoch2 == 0
    assert rows1 is rows2
    assert cache.hits == 1 and cache.misses == 1


def test_epoch_tracks_redraws(mini_db):
    cache = make_cache(mini_db, staleness=0.05)
    assert cache.epoch("car") == -1  # no draw yet
    cache.get("car")
    assert cache.epoch("car") == 0
    car = mini_db.table("car")
    car.udi_total += max(1, int(0.05 * car.row_count))  # crosses staleness
    _, epoch, hit = cache.get("car")
    assert not hit and epoch == 1
    assert cache.epoch("car") == 1


def test_udi_threshold_invalidates(mini_db):
    cache = make_cache(mini_db, staleness=0.05)
    cache.get("car")
    car = mini_db.table("car")
    threshold = max(1, int(0.05 * car.row_count))
    # Touch just under the threshold: still fresh.
    car.udi_total += threshold - 1
    _, _, hit = cache.get("car")
    assert hit
    # One more modified row crosses it.
    car.udi_total += 1
    _, epoch, hit = cache.get("car")
    assert not hit and epoch == 1
    assert cache.invalidations == 1


def test_shrunk_table_invalidates(mini_db):
    # Deletes compact row positions, so any shrink discards the sample even
    # when the UDI activity alone would stay under the threshold.
    cache = make_cache(mini_db, staleness=0.9)
    cache.get("car")
    car = mini_db.table("car")
    car.delete_rows(np.array([0, 1, 2], dtype=np.int64))
    _, _, hit = cache.get("car")
    assert not hit


def test_small_table_growth_invalidates(mini_db):
    # owner (200 rows) is below sample_size=400: the "sample" is the whole
    # table, so any growth warrants a fresh draw that sees the new rows.
    cache = make_cache(mini_db, sample_size=400, staleness=0.9)
    rows, _, _ = cache.get("owner")
    assert len(rows) == 200
    mini_db.table("owner").insert_rows(
        [{"id": 200, "name": "late", "salary": 1.0, "city": "Ottawa"}]
    )
    rows, _, hit = cache.get("owner")
    assert not hit
    assert len(rows) == 201


def test_drop_table_forgets_sample_and_epoch(mini_db):
    cache = make_cache(mini_db)
    cache.get("car")
    cache.drop_table("car")
    assert cache.epoch("car") == -1


# ----------------------------------------------------------------------
# MaskCache
# ----------------------------------------------------------------------
def test_mask_roundtrip_and_epoch_keying():
    cache = MaskCache()
    mask = np.array([True, False, True])
    p = pred("year")
    assert cache.lookup("car", p, 0) is None
    cache.store("car", p, 0, mask)
    assert cache.lookup("CAR", p, 0) is mask
    # A new sample epoch means new row alignment: stale key misses.
    assert cache.lookup("car", p, 1) is None
    assert cache.hits == 1 and cache.misses == 2


def test_mask_lru_eviction():
    cache = MaskCache(max_entries=2)
    a, b, c = pred("year"), pred("price"), pred("id")
    mask = np.ones(3, dtype=bool)
    cache.store("t", a, 0, mask)
    cache.store("t", b, 0, mask)
    cache.lookup("t", a, 0)  # refresh a
    cache.store("t", c, 0, mask)  # evicts b (least recently used)
    assert cache.lookup("t", b, 0) is None
    assert cache.lookup("t", a, 0) is not None
    assert len(cache) == 2


def test_mask_drop_table():
    cache = MaskCache()
    mask = np.zeros(2, dtype=bool)
    cache.store("car", pred("year"), 0, mask)
    cache.store("owner", pred("salary"), 0, mask)
    cache.drop_table("CAR")
    assert len(cache) == 1
    assert cache.lookup("owner", pred("salary"), 0) is not None
