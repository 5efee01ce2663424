"""The car database, built once per checkout and loaded per set-up.

``build_car_database`` encodes every string value in Python and takes
about 9 s at scale 0.2 — far over a run's budget, and it is the test-data
generator, not the system under test. So the benchmark treats it as a
build step: the first run that needs a (scale, indexes) pair builds it and
pickles the resulting ``Database`` under ``bench/out/cache/``; every
set-up, timed, loads that pickle ("opening the database"). ``setup_s``
therefore starts at the load, and the one-off build is reported apart.

The pickle is taken of the object ``build_car_database`` returns, with
locks and thread-locals reduced to fresh ones, so nothing here names a
storage class. If a later storage layout cannot be pickled the benchmark
still runs; it then rebuilds in memory at every set-up and says so.
"""

from __future__ import annotations

import copyreg
import dataclasses
import hashlib
import io
import json
import os
import pickle
import sys
import threading
import time
from pathlib import Path
from typing import Tuple

CACHE_DIR = Path(__file__).resolve().parent / "out" / "cache"
DATA_SEED = 0


class _DatabasePickler(pickle.Pickler):
    dispatch_table = {
        **copyreg.dispatch_table,
        type(threading.Lock()): lambda _lock: (threading.Lock, ()),
        type(threading.RLock()): lambda _lock: (threading.RLock, ()),
        threading.local: lambda _local: (threading.local, ()),
    }


def _stem(scale: float, indexes: bool) -> str:
    return f"cardb-s{scale:g}-{'idx' if indexes else 'noidx'}"


def _build(scale: float, indexes: bool):
    from repro.workload import build_car_database

    return build_car_database(scale=scale, seed=DATA_SEED, with_indexes=indexes)


def _data_fingerprint(database) -> str:
    """Count and extremes of every numeric column: enough to tell that the
    generator (or numpy's random stream) produced other data than the one
    the checked-in goldens were taken on."""
    from repro import Engine

    session = Engine(database).session()
    digest = hashlib.blake2b(digest_size=8)
    for table, columns in (
        ("owner", ["id", "age"]),
        ("demographics", ["ownerid", "salary"]),
        ("car", ["ownerid", "year", "price"]),
        ("accidents", ["carid", "damage", "year", "severity"]),
    ):
        extremes = ", ".join(f"MIN({c}), MAX({c})" for c in columns)
        rows = session.execute(f"SELECT COUNT(*), {extremes} FROM {table}").rows
        digest.update(repr(rows).encode())
    return digest.hexdigest()


def ensure_cached(scale: float, indexes: bool) -> Tuple[dict, float]:
    """Build and pickle the database if this checkout has not yet.

    Returns the generator profile (value domains and table sizes, all the
    statement generators need, plus ``data``, a fingerprint of the rows)
    and the seconds the build took (0 on a hit).
    """
    profile_path = CACHE_DIR / (_stem(scale, indexes) + ".profile.json")
    if profile_path.exists():
        return json.loads(profile_path.read_text()), 0.0
    started = time.perf_counter()
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    database, profile = _build(scale, indexes)
    described = dataclasses.asdict(profile)
    described["data"] = _data_fingerprint(database)
    buffer = io.BytesIO()
    try:
        _DatabasePickler(buffer, protocol=5).dump(database)
    except (TypeError, pickle.PicklingError, AttributeError) as exc:
        print(
            f"bench: cannot pickle the database ({exc}); every set-up will "
            "rebuild it in memory",
            file=sys.stderr,
        )
    else:
        _write_atomic(CACHE_DIR / (_stem(scale, indexes) + ".pkl"), buffer.getvalue())
    # Written last: its presence marks the cache entry as complete.
    _write_atomic(profile_path, json.dumps(described).encode())
    return json.loads(profile_path.read_text()), time.perf_counter() - started


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def load_database(scale: float, indexes: bool):
    """A fresh, private ``Database`` (the pickle, or a rebuild without one)."""
    path = CACHE_DIR / (_stem(scale, indexes) + ".pkl")
    if not path.exists():
        return _build(scale, indexes)[0]
    with path.open("rb") as handle:
        return pickle.load(handle)
