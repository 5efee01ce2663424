"""Generated GROUP BY / DISTINCT queries against the reference executor.

Hypothesis writes the queries: 1–3 group keys over int, float and string
columns, COUNT(*) / COUNT(DISTINCT) / INT SUM and AVG / MIN / MAX /
float SUM(DISTINCT), optional WHERE and HAVING, and SELECT DISTINCT over
1–3 columns. Each runs in-process (``scan_workers=0``) and over the pool
(``scan_workers=2``, threshold 64, so the mini tables shard and the
aggregate and distinct fragments run), and both results must be
byte-identical to ``run_reference``. Between them the two engines reach
every call of ``executor.joinutil.factorize``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig
from repro.executor import run_reference
from repro.sql import build_query_graph, parse_select
from tests.conftest import build_mini_db

#: (int columns, float columns, string columns, WHERE predicates)
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
    ),
    "owner": (
        ("id",),
        ("salary",),
        ("city", "name"),
        ("salary > 4000", "city <> 'Ottawa'", "id < 120"),
    ),
}

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
    pooled.parallel_threshold_rows = 64
    return (
        engine_factory(build_mini_db(), EngineConfig.traditional()),
        engine_factory(build_mini_db(), pooled),
    )


def _check(engines, sql: str) -> None:
    inline, pooled = engines
    block = build_query_graph(parse_select(sql), inline.database)
    want = repr(sorted(run_reference(block, inline.database)))
    assert repr(sorted(inline.execute(sql).rows)) == want, sql
    assert repr(sorted(pooled.execute(sql).rows)) == want, sql


@st.composite
def where_clauses(draw, predicates):
    chosen = draw(st.lists(st.sampled_from(predicates), max_size=2, unique=True))
    return f" WHERE {' AND '.join(chosen)}" if chosen else ""


@st.composite
def group_by_queries(draw):
    table = draw(st.sampled_from(sorted(TABLES)))
    ints, floats, strings, predicates = TABLES[table]
    columns = ints + floats + strings
    keys = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True))
    aggregate = st.one_of(
        st.just("COUNT(*)"),
        st.sampled_from(columns).map(lambda c: f"COUNT(DISTINCT {c})"),
        st.sampled_from(ints).map(lambda c: f"SUM({c})"),
        st.sampled_from(ints).map(lambda c: f"AVG({c})"),
        st.sampled_from(columns).map(lambda c: f"MIN({c})"),
        st.sampled_from(columns).map(lambda c: f"MAX({c})"),
        st.sampled_from(floats).map(lambda c: f"SUM(DISTINCT {c})"),
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
    ints, floats, strings, predicates = TABLES[table]
    columns = draw(
        st.lists(st.sampled_from(ints + floats + strings), min_size=1, max_size=3, unique=True)
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
