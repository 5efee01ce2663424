"""The one result path: a SELECT hands back its column vectors as the
executor produced them (no copy) and decodes row tuples on first access.

* Aliasing soundness: results held across INSERT / UPDATE / DELETE on the
  same table still read what the reference executor returned before the
  DML — embedded, and over the wire with the frames encoded only after
  the DML committed.
* Laziness: the server never calls ``ExecutionResult.rows`` (every
  SELECT reply streams, 0 rows included), and an embedded result caches
  the list.
"""

import threading

import numpy as np
import pytest

import repro.server.server as server_module
from repro import Engine, EngineConfig
from repro.executor import run_reference
from repro.executor.executor import ExecutionResult
from repro.executor.vector import batch_from_table
from repro.server import ReproServer, connect
from repro.sql import build_query_graph, parse_select
from tests.conftest import build_mini_db

FULL = "SELECT id, ownerid, make, year, price FROM car"
FILTERED = "SELECT id, make, price FROM car WHERE year >= 2000"
N_CARS = 600


def insert_sql(first_id: int, count: int) -> str:
    values = ", ".join(
        f"({first_id + i}, {i % 50}, 'Lada', 'Niva', 1999, 123.0)"
        for i in range(count)
    )
    return f"INSERT INTO car VALUES {values}"


#: An INSERT that fits the spare capacity of the one chunk (600 rows sit
#: in a 1024-slot chunk), so it writes in place beside the rows a held
#: result reads; a range UPDATE of a returned column, which must copy
#: that chunk before writing; and a DELETE, which rebuilds it.
DML = [
    insert_sql(10_000, 100),
    "UPDATE car SET price = price + 1000.0 WHERE id BETWEEN 100 AND 400",
    "DELETE FROM car WHERE id < 50",
]


def make_engine() -> Engine:
    return Engine(build_mini_db(n_owners=60, n_cars=N_CARS, seed=5), EngineConfig())


def reference(engine: Engine, sql: str):
    block = build_query_graph(parse_select(sql), engine.database)
    return sorted(run_reference(block, engine.database))


def decoded(vectors):
    return sorted(zip(*(v.decode() for v in vectors)))


def test_held_results_survive_dml_embedded():
    engine = make_engine()
    car = engine.database.live_table("car")
    want = {sql: reference(engine, sql) for sql in (FULL, FILTERED)}
    held = {sql: engine.execute(sql) for sql in (FULL, FILTERED)}
    # The alias path itself: a whole-column batch over a pinned generation
    # shares the generation's arrays, which nothing may write to.
    with engine.read_view(("car",)):
        alias = batch_from_table(engine.database.table("car"), "car", None)
    alias_want = {key: vec.values.copy() for key, vec in alias.columns.items()}
    assert not any(vec.values.flags.writeable for vec in alias.columns.values())

    # The alias reads the live column's own chunk: a write in place would
    # reach it.
    for key, vec in alias.columns.items():
        assert np.shares_memory(vec.values, car.column(key[1]).pieces[0]), key
    for sql in DML:
        engine.execute(sql)
    assert reference(engine, FULL) != want[FULL]  # the DML was visible

    for sql, result in held.items():
        assert "rows" not in vars(result), "rows were decoded before the DML"
        assert decoded(result.vectors) == want[sql]
        assert sorted(result.rows) == want[sql]
        assert result.row_count == len(want[sql])
    for key, vec in alias.columns.items():
        assert np.array_equal(vec.values, alias_want[key])


@pytest.fixture
def server():
    srv = ReproServer(make_engine(), port=0, chunk_rows=100).start_in_thread()
    yield srv
    srv.stop_from_thread()


def test_streamed_result_encoded_after_dml_commits(server, monkeypatch):
    engine = server.engine
    want = {sql: reference(engine, sql) for sql in (FULL, FILTERED)}
    executed = threading.Semaphore(0)
    release = threading.Event()
    encode = server_module.build_stream_frames

    def encode_after_release(*args, **kwargs):
        # The statement has run and dropped its read view; hold the
        # result, unencoded, until the DML below has committed.
        executed.release()
        assert release.wait(timeout=10)
        return encode(*args, **kwargs)

    monkeypatch.setattr(server_module, "build_stream_frames", encode_after_release)
    got = {}

    def fetch(sql):
        with connect(port=server.port) as client:
            got[sql] = client.execute(sql)

    readers = [threading.Thread(target=fetch, args=(sql,)) for sql in want]
    for thread in readers:
        thread.start()
    for _ in readers:
        assert executed.acquire(timeout=10)
    with connect(port=server.port) as writer:
        for sql in DML:
            writer.execute(sql)
    assert reference(engine, FULL) != want[FULL]
    release.set()
    for thread in readers:
        thread.join(timeout=10)
        assert not thread.is_alive()
    for sql, result in got.items():
        assert result.streamed
        assert sorted(result.rows) == want[sql]


@pytest.fixture
def rows_calls(monkeypatch):
    calls = []
    original = ExecutionResult.rows

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ExecutionResult, "rows", counting)
    return calls


def test_streamed_select_never_decodes_rows_on_the_server(server, rows_calls):
    with connect(port=server.port) as client:
        streamed = client.execute(FULL)
        assert streamed.streamed and streamed.row_count == N_CARS
        small = client.execute("SELECT COUNT(*) FROM car")
        assert small.streamed and small.rows == [(N_CARS,)]
        empty = client.execute("SELECT id FROM car WHERE id < 0")
        assert empty.streamed and empty.columns == ["id"] and empty.rows == []
        assert client.execute("DELETE FROM car WHERE id < 0").streamed is False
    assert rows_calls == []
    assert server.streamed_results == 3


def test_embedded_rows_decode_once_and_time_the_fetch_phase(rows_calls):
    result = make_engine().execute(FILTERED)
    assert set(result.timings) == {"compile", "execute", "fetch"}
    assert result.fetch_time == 0.0 and rows_calls == []
    assert result.row_count == len(result.vectors[0])
    rows = result.rows
    assert result.rows is rows and len(rows_calls) == 1
    assert len(rows) == result.row_count
    assert set(result.timings) == {"compile", "execute", "fetch"}
    assert result.fetch_time > 0.0
