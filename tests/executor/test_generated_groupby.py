"""Generated GROUP BY / DISTINCT queries against the reference executor.

Hypothesis writes the queries: 1–3 group keys over int, float and string
columns, COUNT(*) / COUNT(DISTINCT) / SUM and AVG / MIN / MAX / float
SUM(DISTINCT), optional WHERE and HAVING, and SELECT DISTINCT over 1–3
columns. Each runs in-process (``scan_workers=0``) and over the pool
(``scan_workers=2``, threshold 64, so the tables shard and the aggregate
and distinct fragments run), and both results must be byte-identical to
``run_reference``, compared through ``repr`` (``sorted`` over rows
holding NaN depends on input order). Between them the two engines reach
every call of ``executor.joinutil.factorize``.

Besides the mini car/owner tables, the fixture builds ``num`` through
SQL: INT values past 2**53 (where float64 sums lose units) and a FLOAT
column holding -0.0, 0.0, ±1e308, ±inf and NaN (UPDATE overflow makes
the last three; SQL has no NaN literal). NaN as a GROUP BY key or
DISTINCT column is out of scope: the reference groups through a
``dict``, which keeps distinct NaN objects apart, so ``num.x`` is never
a key, a DISTINCT aggregate's argument or a SELECT DISTINCT column.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig
from repro.executor import run_reference
from repro.sql import build_query_graph, parse_select
from tests.conftest import build_mini_db

#: (int columns, float columns, string columns, WHERE predicates,
#: columns holding NaN — never keys or DISTINCT columns)
TABLES = {
    "car": (
        ("year", "ownerid", "id"),
        ("price",),
        ("make", "model"),
        (
            "year >= 2001",
            "year < 1999",
            "make = 'Toyota'",
            "model IN ('Civic', 'Focus')",
            "price > 30000",
            "ownerid BETWEEN 10 AND 90",
        ),
        (),
    ),
    "owner": (
        ("id",),
        ("salary",),
        ("city", "name"),
        ("salary > 4000", "city <> 'Ottawa'", "id < 120"),
        (),
    ),
    "num": (
        ("k", "big", "id"),
        ("x",),
        ("tag",),
        ("k < 3", "tag = 'b'", "id >= 40", "x > 0"),
        ("x",),
    ),
}

#: 2**53 + 1: the first integer float64 cannot hold.
_BIG = (1 << 53) + 1
#: 1e308 * 10 overflows to inf; inf - inf is NaN.
_NON_FINITE = (
    "UPDATE num SET x = x * 10 WHERE id IN (7, 61, 130)",
    "UPDATE num SET x = x * 10 - x * 10 WHERE id IN (13, 100)",
)


def _num_rows(n: int = 144):
    """``num`` rows: ``big`` straddles ±2**53 and ``x`` repeats -0.0,
    0.0, ±1e308 among ordinary values (ids 7/61/130 hold ±1e308 for
    the inf UPDATE, ids 13/100 hold 1e308 for the NaN UPDATE)."""
    specials = [-0.0, 0.0, 1e308, -1e308]
    for i in range(n):
        big = (_BIG + 37 * i) * (1 if i % 3 else -1)
        if i in (7, 13, 100):
            x = 1e308
        elif i in (61, 130):
            x = -1e308
        elif i % 4 == 0:
            x = specials[(i // 4) % len(specials)]
        else:
            x = round((i * 7919 % 1000) / 8.0 - 60.0, 3)
        yield f"({i}, {i % 5}, {big}, {x!r}, '{'abc'[i % 3]}')"


NUM_TABLE = (
    "CREATE TABLE num (id INT PRIMARY KEY, k INT, big INT, x FLOAT, tag STRING)",
    "INSERT INTO num VALUES " + ", ".join(_num_rows()),
) + _NON_FINITE

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture
def engines(engine_factory):
    """One in-process and one pooled engine over identical databases."""
    pooled = EngineConfig.traditional()
    pooled.scan_workers = 2
    pair = (
        engine_factory(build_mini_db(), EngineConfig.traditional()),
        engine_factory(build_mini_db(), pooled),
    )
    pair[1].parallel.threshold_rows = 64
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow
        for engine in pair:
            for statement in NUM_TABLE:
                engine.execute(statement)
    yield pair
    assert pair[1].stats_snapshot()["parallel"]["fragments"], "no fragment ran"


def _canonical(rows) -> str:
    return repr(sorted(map(repr, rows)))


def _check(engines, sql: str) -> None:
    inline, pooled = engines
    block = build_query_graph(parse_select(sql), inline.database)
    want = _canonical(run_reference(block, inline.database))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf sums
        assert _canonical(inline.execute(sql).rows) == want, sql
        assert _canonical(pooled.execute(sql).rows) == want, sql


@st.composite
def where_clauses(draw, predicates):
    chosen = draw(st.lists(st.sampled_from(predicates), max_size=2, unique=True))
    return f" WHERE {' AND '.join(chosen)}" if chosen else ""


@st.composite
def group_by_queries(draw):
    table = draw(st.sampled_from(sorted(TABLES)))
    ints, floats, strings, predicates, nan_columns = TABLES[table]
    columns = ints + floats + strings
    keyable = tuple(c for c in columns if c not in nan_columns)
    keys = draw(st.lists(st.sampled_from(keyable), min_size=1, max_size=3, unique=True))
    numeric = ints + floats
    distinct_floats = tuple(c for c in floats if c not in nan_columns) or ints
    aggregate = st.one_of(
        st.just("COUNT(*)"),
        st.sampled_from(keyable).map(lambda c: f"COUNT(DISTINCT {c})"),
        st.sampled_from(numeric).map(lambda c: f"SUM({c})"),
        st.sampled_from(numeric).map(lambda c: f"AVG({c})"),
        st.sampled_from(columns).map(lambda c: f"MIN({c})"),
        st.sampled_from(columns).map(lambda c: f"MAX({c})"),
        st.sampled_from(distinct_floats).map(lambda c: f"SUM(DISTINCT {c})"),
    )
    aggregates = draw(st.lists(aggregate, min_size=1, max_size=4))
    items = keys + [f"{agg} AS agg{i}" for i, agg in enumerate(aggregates)]
    having = draw(st.sampled_from(["", " HAVING COUNT(*) >= 2", " HAVING COUNT(*) < 3"]))
    return (
        f"SELECT {', '.join(items)} FROM {table}"
        f"{draw(where_clauses(predicates))} GROUP BY {', '.join(keys)}{having}"
    )


@st.composite
def distinct_queries(draw):
    table = draw(st.sampled_from(sorted(TABLES)))
    ints, floats, strings, predicates, nan_columns = TABLES[table]
    keyable = [c for c in ints + floats + strings if c not in nan_columns]
    columns = draw(
        st.lists(st.sampled_from(keyable), min_size=1, max_size=3, unique=True)
    )
    return (
        f"SELECT DISTINCT {', '.join(columns)} FROM {table}"
        f"{draw(where_clauses(predicates))}"
    )


@SETTINGS
@given(sql=group_by_queries())
def test_generated_group_by_matches_reference(engines, sql):
    _check(engines, sql)


@SETTINGS
@given(sql=distinct_queries())
def test_generated_distinct_matches_reference(engines, sql):
    _check(engines, sql)
