"""The oracle checked against the program's own naive reference executor.

The goldens are what a plain (no JITS, no worker pool) engine answers. This
test checks that engine, and the digest, against
``repro.executor.reference.run_reference`` on a database small enough for a
row-at-a-time cross product: every SELECT of every workload's round, each
at the point where it occurs, the round's DML applied in between.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import dataset, oracle, workloads  # noqa: E402
from bench.workloads import CHECK, SELECT, SPECS  # noqa: E402

TINY_SCALE = 1e-4  # 143 cars, 100 owners, 429 accidents


@pytest.mark.parametrize("name", sorted(SPECS))
def test_oracle_matches_reference_executor(name):
    from repro import Engine, EngineConfig
    from repro.executor.reference import run_reference
    from repro.sql import build_query_graph, parse

    spec = SPECS[name]
    profile, _ = dataset.ensure_cached(TINY_SCALE, spec.indexes)
    database = dataset.load_database(TINY_SCALE, spec.indexes)
    session = Engine(database, EngineConfig.traditional()).session()
    workload = workloads.generate(spec, profile, seed=1, smoke=True)

    compared = 0
    for stream in workload.streams:
        for statement in stream:
            result = session.execute(statement.sql)
            if statement.kind not in (SELECT, CHECK):
                continue
            expected = run_reference(
                build_query_graph(parse(statement.sql), database), database
            )
            assert len(result.rows) == len(expected), statement.sql
            assert oracle.digest_rows(result.rows, statement.ordered) == (
                oracle.digest_rows(expected, statement.ordered)
            ), statement.sql
            compared += 1
    assert compared >= 10


def test_digest_tells_rows_apart():
    rows = [(1, 2.5, "a"), (2, 3.5, "b"), (3, None, "c")]
    swapped = [rows[1], rows[0], rows[2]]
    assert oracle.digest_rows(rows, False) == oracle.digest_rows(swapped, False)
    assert oracle.digest_rows(rows, True) != oracle.digest_rows(swapped, True)
    assert oracle.digest_rows(rows, False) != oracle.digest_rows(rows[:2], False)
    assert oracle.digest_rows(rows, False) != oracle.digest_rows(
        [(1, 2.5, "a"), (2, 3.5, "b"), (3, None, "d")], False
    )
    # Columns are not interchangeable, and a value is not its neighbour's.
    assert oracle.digest_rows([(1, 2)], False) != oracle.digest_rows([(2, 1)], False)
    assert oracle.digest_rows([(1.0,)], False) != oracle.digest_rows([(1.0000000000000002,)], False)
