"""True cancellation: interrupting a statement that is already running.

The queued-cancel path is covered in test_server.py; these tests pin the
harder guarantee — a ``cancel`` frame interrupts an *executing*
statement at the next morsel/checkpoint boundary, the reply is a typed
``CANCELLED`` error, the interruption is prompt (a fraction of the
statement's remaining work), and the session stays usable.

The long statement is real work: a self cross product, which can only be
planned as the chunked nested-loop join, so its one
``check_cancelled()`` poll per cross-product chunk is what these tests
depend on.
"""

import time

import pytest

from repro import Engine, EngineConfig
from repro.errors import StatementCancelledError
from repro.server import ReproServer, connect
from tests.conftest import build_mini_db

SQL = "SELECT COUNT(*) FROM car a, car b"

# 10k x 10k = 1e8 cross-product cells, 2^22 cells per chunk: seconds of
# nested-loop work in ~24 chunks, one cancellation poll between chunks.
N_CARS = 10_000


def make_engine() -> Engine:
    db = build_mini_db(n_owners=50, n_cars=N_CARS, seed=5)
    return Engine(db, EngineConfig())


@pytest.fixture
def server():
    srv = ReproServer(make_engine(), port=0).start_in_thread()
    yield srv
    srv.stop_from_thread()


def test_cancel_interrupts_running_statement(server):
    with connect(port=server.port) as client:
        rid = client.next_id()
        client.send_raw({"type": "query", "id": rid, "sql": SQL})
        time.sleep(0.3)  # let it get admitted and start joining
        started = time.perf_counter()
        assert client.cancel(rid) is True
        reply = client._out_of_order.pop(rid, None)
        if reply is None:
            reply = client.recv_raw()
        elapsed = time.perf_counter() - started
        assert reply["type"] == "error"
        assert reply["code"] == "CANCELLED"
        assert reply["id"] == rid
        # Far sooner than the seconds the join had left: the token is
        # polled once per cross-product chunk.
        assert elapsed < 1.0, f"cancel took {elapsed:.2f}s"
        # The session is immediately reusable on the same connection.
        result = client.execute("SELECT COUNT(*) FROM owner")
        assert result.rows == [(50,)]


def test_cancelled_error_surfaces_typed(server):
    with connect(port=server.port) as client:
        rid = client.next_id()
        client.send_raw({"type": "query", "id": rid, "sql": SQL})
        time.sleep(0.3)
        assert client.cancel(rid) is True
        reply = client._out_of_order.pop(rid, None)
        if reply is None:
            reply = client.recv_raw()
        with pytest.raises(StatementCancelledError):
            client._unwrap(reply, "result")


def test_cancel_after_completion_is_a_noop(server):
    with connect(port=server.port) as client:
        result = client.execute("SELECT COUNT(*) FROM owner")
        assert result.rows == [(50,)]
        # The statement finished; its token is gone. Racing a cancel
        # against the completed request must not invent an error.
        assert client.cancel(client.last_request_id) is False
        assert client.execute("SELECT COUNT(*) FROM owner").rows == [(50,)]


def test_disconnect_cancels_running_statement(server):
    victim = connect(port=server.port)
    rid = victim.next_id()
    victim.send_raw({"type": "query", "id": rid, "sql": SQL})
    time.sleep(0.3)
    victim.close()  # abrupt: the join must not run to completion
    started = time.perf_counter()
    with connect(port=server.port) as probe:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if probe.stats()["server"]["connections"] == 1:
                break
            time.sleep(0.05)
        stats = probe.stats()
        assert stats["server"]["connections"] == 1
    # Generous bound, still far below the statement's remaining work.
    assert time.perf_counter() - started < 3.0
