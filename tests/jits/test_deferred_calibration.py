"""Deferred, batched max-entropy recalibration of the QSS archive."""

import pytest

from repro.catalog import column_domain
from repro.histograms import AdaptiveGridHistogram, Interval, Region
from repro.jits import QSSArchive


def obs_region(lo, hi):
    return Region.of(Interval(float(lo), float(hi)))


OBSERVATIONS = [
    (obs_region(1996, 2000), 120.0, 600.0, 1),
    (obs_region(1999, 2003), 260.0, 600.0, 2),
    (obs_region(2001, 2006), 300.0, 600.0, 3),
    (obs_region(1995, 1997), 40.0, 600.0, 4),
]


def test_observe_defers_and_batch_flushes(mini_db):
    archive = QSSArchive(mini_db)
    for region, count, total, now in OBSERVATIONS:
        hist = archive.observe("car", ["year"], region, count, total, now=now)
        assert hist.dirty
    assert archive.recalibrate_dirty() == 1  # one dirty histogram, one pass
    assert not archive.lookup("car", ["year"]).dirty
    assert archive.recalibrate_dirty() == 0  # nothing left to flush


def test_lookup_lazily_recalibrates(mini_db):
    archive = QSSArchive(mini_db)
    region, count, total, now = OBSERVATIONS[0]
    archive.observe("car", ["year"], region, count, total, now=now)
    hist = archive.lookup("car", ["year"])
    # Readers never see uncalibrated counts, even before a batch boundary.
    assert not hist.dirty
    assert archive.deferred_recalibrations == 1
    assert hist.estimate_count(region) == pytest.approx(count, rel=0.02)


def test_batched_matches_eager_calibration(mini_db):
    # Same observation stream into the archive (batched) and into a
    # standalone histogram calibrated on every observe (the eager
    # reference): the batched pass lands on the same grid and constraint
    # set, so every constraint region's count must agree within the IPF
    # solver's own tolerance band (the fixed point depends mildly on the
    # starting measure, nothing more).
    deferred = QSSArchive(mini_db)
    _, _, first_total, first_now = OBSERVATIONS[0]
    eager = AdaptiveGridHistogram(
        Region.of(column_domain(mini_db.table("car"), "year")),
        total=first_total,
        now=first_now,
        max_boundaries_per_dim=deferred.max_boundaries_per_dim,
    )
    for region, count, total, now in OBSERVATIONS:
        eager.observe(region, count, total=total, now=now, calibrate_now=True)
        deferred.observe("car", ["year"], region, count, total, now=now)
    deferred.recalibrate_dirty()
    b = deferred.lookup("car", ["year"])
    assert eager.n_cells == b.n_cells
    assert b.total_mass == pytest.approx(eager.total_mass, rel=1e-2)
    for region, _, _, _ in OBSERVATIONS:
        assert b.estimate_count(region) == pytest.approx(
            eager.estimate_count(region), rel=1e-2
        )


def test_eviction_and_drop_clear_dirty_keys(mini_db):
    archive = QSSArchive(mini_db)
    archive.observe("car", ["year"], obs_region(2000, 2002), 50, 600, now=1)
    archive.observe("owner", ["salary"], obs_region(0, 1000), 20, 200, now=2)
    archive.drop_table("car")
    assert archive.recalibrate_dirty() == 1  # only owner.salary remains


def test_version_bumps_on_every_observe(mini_db):
    archive = QSSArchive(mini_db)
    assert archive.version == 0
    archive.observe("car", ["year"], obs_region(2000, 2002), 50, 600, now=1)
    archive.observe("car", ["year"], obs_region(2001, 2003), 60, 600, now=2)
    assert archive.version == 2
