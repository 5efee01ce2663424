"""Client-side BUSY handling: jittered backoff, bounded retries,
structured exhaustion errors (the same from every entry point), and the
client-level ``max_retries`` knob.
"""

import random
import time

import pytest

from repro import Engine, EngineConfig
from repro.server import ReproServer, ServerBusyError, connect
from repro.server.client import MAX_BUSY_BACKOFF, _backoff_delay
from tests.conftest import build_mini_db


def test_backoff_is_exponential_and_jittered():
    random.seed(4)
    base = 0.05
    for attempt in range(12):
        ceiling = min(base * 2**attempt, MAX_BUSY_BACKOFF)
        samples = [_backoff_delay(base, attempt) for _ in range(50)]
        # Jitter keeps every delay within [ceiling/2, ceiling]: bounded
        # above (no runaway sleeps) and spread out (no thundering herd).
        assert all(ceiling / 2 <= s <= ceiling for s in samples)
        assert len(set(samples)) > 1
    assert _backoff_delay(0.05, 30) <= MAX_BUSY_BACKOFF


@pytest.fixture
def busy_server():
    """A server under a held write lock with ``per_client_inflight=1``:
    once a connection pipelines one (blocked) statement, every further
    request on it is refused with a retryable BUSY frame."""
    db = build_mini_db(n_owners=30, n_cars=60, seed=2)
    engine = Engine(db, EngineConfig())
    server = ReproServer(
        engine, port=0, max_inflight=4, per_client_inflight=1
    ).start_in_thread()
    engine.locks.database.acquire_write()
    yield server
    engine.locks.database.release_write()
    server.stop_from_thread()


def occupy(client) -> None:
    """Fill the connection's single admission slot with a statement that
    blocks on the held write lock."""
    client.send_raw(
        {
            "type": "query",
            "id": client.next_id(),
            "sql": "SELECT COUNT(*) FROM car",
        }
    )
    time.sleep(0.2)  # let it get admitted before the next request


@pytest.mark.parametrize(
    "run",
    [
        lambda client, sql, **retry: client.execute(sql, **retry),
        lambda client, sql, **retry: client.execute_streaming(
            sql, lambda columns, rows: None, **retry
        ),
        lambda client, sql, **retry: list(client.iterate(sql, **retry)),
    ],
    ids=["execute", "execute_streaming", "iterate"],
)
def test_exhausted_retries_raise_structured_error(busy_server, run):
    # Every entry point reports exhaustion the same way.
    with connect(port=busy_server.port) as client:
        occupy(client)
        with pytest.raises(ServerBusyError) as excinfo:
            run(
                client,
                "SELECT COUNT(*) FROM owner",
                busy_retries=3,
                busy_backoff=0.001,
            )
        exc = excinfo.value
        assert exc.attempts == 4  # 1 try + 3 retries
        assert exc.cap == 1
        assert "3 retries" in str(exc)
        # Chained from the final BUSY refusal.
        assert isinstance(exc.__cause__, ServerBusyError)


def test_zero_retries_raise_immediately(busy_server):
    with connect(port=busy_server.port) as client:
        occupy(client)
        with pytest.raises(ServerBusyError) as excinfo:
            client.execute("SELECT COUNT(*) FROM owner", busy_retries=0)
        assert excinfo.value.attempts == 1


def test_client_level_max_retries_knob(busy_server):
    # The connection-level knob applies when execute() passes nothing.
    with connect(
        port=busy_server.port, max_retries=2, busy_backoff=0.001
    ) as client:
        occupy(client)
        with pytest.raises(ServerBusyError) as excinfo:
            client.execute("SELECT COUNT(*) FROM owner")
        assert excinfo.value.attempts == 3


def test_retries_succeed_once_the_slot_frees(busy_server):
    import threading

    with connect(port=busy_server.port) as client:
        occupy(client)
        # Release the blocker shortly after the retry loop starts.
        releaser = threading.Timer(
            0.3, busy_server.engine.locks.database.release_write
        )
        releaser.start()
        try:
            result = client.execute(
                "SELECT COUNT(*) FROM owner",
                busy_retries=20,
                busy_backoff=0.05,
            )
            assert result.rows == [(30,)]
        finally:
            releaser.join()
            # The fixture's teardown releases again; re-acquire for it.
            busy_server.engine.locks.database.acquire_write()
