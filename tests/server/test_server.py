"""Functional tests for the asyncio server and blocking client."""

import socket
import struct
import time

import pytest

from repro import (
    BindingError,
    ConfigError,
    Engine,
    EngineConfig,
    ReproError,
    SqlSyntaxError,
)
from repro.server import (
    CancelledStatementError,
    Client,
    ProtocolError,
    ReproServer,
    ServerBusyError,
    connect,
    encode_frame,
    read_wire_frame_blocking,
)
from tests.conftest import build_mini_db


def make_engine(seed: int = 3) -> Engine:
    db = build_mini_db(n_owners=60, n_cars=180, seed=seed)
    return Engine(
        db, EngineConfig.with_jits(s_max=0.3, sample_size=100)
    )


@pytest.fixture
def server():
    srv = ReproServer(
        make_engine(), port=0, max_inflight=4, per_client_inflight=2
    ).start_in_thread()
    yield srv
    srv.stop_from_thread()


def test_server_config_validation():
    engine = make_engine()
    with pytest.raises(ConfigError):
        ReproServer(engine, max_inflight=0)
    with pytest.raises(ConfigError):
        ReproServer(engine, per_client_inflight=0)
    with pytest.raises(TypeError):  # the pool is max_inflight wide
        ReproServer(engine, workers=1)
    with pytest.raises(ConfigError):
        ReproServer(engine, chunk_rows=0)


def test_query_explain_stats_ping(server):
    with connect(port=server.port) as client:
        result = client.execute("SELECT COUNT(*) FROM car")
        assert result.statement_type == "select"
        assert result.rows == [(180,)]
        assert result.row_count == 1
        assert set(result.timings) == {"compile", "execute", "fetch"}
        assert result.total_time > 0.0

        plan = client.explain("SELECT id FROM car WHERE make = 'Toyota'")
        assert "Scan" in plan or "Project" in plan

        stats = client.stats()
        assert stats["engine"]["statements_executed"] >= 1
        assert stats["server"]["connections"] == 1
        assert stats["server"]["per_client_inflight"] == 2
        assert "car" in stats["tables"]

        assert client.ping() >= 0.0


def test_query_results_match_in_process_engine(server):
    sql = "SELECT id, make, price FROM car WHERE year >= 2000 ORDER BY id"
    reference = make_engine()
    with connect(port=server.port) as client:
        remote = client.execute(sql)
    local = reference.execute(sql)
    assert remote.columns == local.columns
    assert remote.rows == local.rows  # byte-identical, ORDER BY total


def test_dml_over_the_wire(server):
    with connect(port=server.port) as client:
        before = client.execute("SELECT COUNT(*) FROM car").rows[0][0]
        deleted = client.execute("DELETE FROM car WHERE price < 5000")
        assert deleted.statement_type == "delete"
        after = client.execute("SELECT COUNT(*) FROM car").rows[0][0]
        assert after == before - deleted.affected_rows


def test_error_frames_surface_typed_exceptions(server):
    with connect(port=server.port) as client:
        with pytest.raises(SqlSyntaxError) as excinfo:
            client.execute("SELECT FROM WHERE")
        assert excinfo.value.position >= 0
        with pytest.raises(BindingError):
            client.execute("SELECT nosuchcolumn FROM car")
        with pytest.raises(ReproError):
            client.explain("DELETE FROM car WHERE price < 1")
        # The connection stays usable after every error.
        assert client.execute("SELECT COUNT(*) FROM owner").rows == [(60,)]


@pytest.mark.parametrize("frame_type", ["frobnicate", "fingerprints"])
def test_unknown_frame_type_is_protocol_error(server, frame_type):
    with connect(port=server.port) as client:
        client.send_raw({"type": frame_type, "id": 1})
        reply = client.recv_raw()
        assert reply["type"] == "error"
        assert reply["code"] == "PROTOCOL"
        assert reply["id"] == 1
        # The connection stays usable after the rejection.
        assert client.execute("SELECT COUNT(*) FROM car").row_count == 1


def test_handshake_version_mismatch_rejected(server):
    with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
        sock.sendall(encode_frame({"type": "hello", "version": 999}))
        stream = sock.makefile("rb")
        _kind, reply = read_wire_frame_blocking(stream)
        assert reply["type"] == "error"
        assert reply["code"] == "PROTOCOL"
        assert "version" in reply["message"]
        # Server closes the connection after rejecting the handshake.
        assert stream.read(1) == b""


def test_garbage_bytes_do_not_wedge_the_server(server):
    with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
        sock.sendall(struct.pack(">I", 8) + b"notjson!")
    # A well-formed client still gets served afterwards.
    with connect(port=server.port) as client:
        assert client.execute("SELECT COUNT(*) FROM car").row_count == 1


def test_flooding_client_gets_busy_frames(server):
    with connect(port=server.port) as client:
        ids = []
        for _ in range(8):
            rid = client.next_id()
            ids.append(rid)
            client.send_raw(
                {
                    "type": "query",
                    "id": rid,
                    "sql": "SELECT COUNT(*) FROM car",
                }
            )
        replies = {}
        while len(replies) < len(ids):
            # One completed reply per id: a BUSY frame, or a SELECT's
            # stream collapsed into its ``result`` frame.
            frame = client._pump()
            if frame is not None:
                replies[frame["id"]] = frame
        assert set(replies) == set(ids)
        kinds = [replies[rid]["type"] for rid in ids]
        assert kinds.count("busy") >= 1  # cap is 2; 8 were pipelined
        assert kinds.count("result") >= 2
        busy = next(f for f in replies.values() if f["type"] == "busy")
        assert busy["retryable"] is True
        assert busy["cap"] == 2


def test_busy_raises_and_retries(server):
    with connect(port=server.port) as client:
        # Fill the admission cap with pipelined raw frames...
        for _ in range(4):
            client.send_raw(
                {
                    "type": "query",
                    "id": client.next_id(),
                    "sql": "SELECT COUNT(*) FROM accidents",
                }
            )
        # ...then the high-level call sees BUSY without retries...
        with pytest.raises(ServerBusyError):
            client.execute("SELECT COUNT(*) FROM car", busy_retries=0)
        # ...and succeeds with bounded retries once the queue drains.
        result = client.execute(
            "SELECT COUNT(*) FROM car", busy_retries=8, busy_backoff=0.05
        )
        assert result.rows == [(180,)]


def test_cancel_dequeues_pending_statement():
    engine = make_engine()
    server = ReproServer(
        engine, port=0, max_inflight=1, per_client_inflight=1
    ).start_in_thread()
    try:
        blocker = connect(port=server.port)
        victim = connect(port=server.port)
        # Hold the database write lock so the blocker's statement occupies
        # the single global slot, guaranteeing the victim's stays queued.
        engine.locks.database.acquire_write()
        try:
            blocker.send_raw(
                {
                    "type": "query",
                    "id": blocker.next_id(),
                    "sql": "DELETE FROM car WHERE price < 100",
                }
            )
            time.sleep(0.2)  # let the blocker's statement get admitted
            target = victim.next_id()
            victim.send_raw(
                {
                    "type": "query",
                    "id": target,
                    "sql": "SELECT COUNT(*) FROM car",
                }
            )
            time.sleep(0.2)  # let it reach the victim's queue
            assert victim.cancel(target) is True
            with pytest.raises(CancelledStatementError):
                victim._unwrap(victim._out_of_order.pop(target), "result")
            # Cancelling an unknown id reports cancelled=False.
            assert victim.cancel(99999) is False
        finally:
            engine.locks.database.release_write()
        blocker.recv_raw()  # the unblocked DELETE's result
        blocker.close()
        victim.close()
    finally:
        server.stop_from_thread()


def test_two_clients_have_independent_sessions(server):
    with connect(port=server.port) as a, connect(port=server.port) as b:
        ra = a.execute("SELECT COUNT(*) FROM car")
        rb = b.execute("SELECT COUNT(*) FROM car")
        assert ra.rows == rb.rows
        stats = a.stats()
        assert stats["server"]["connections"] == 2


def test_connect_retries_then_fails_fast():
    with pytest.raises(ProtocolError, match="could not connect"):
        Client(
            port=1,  # nothing listens on port 1
            connect_retries=2,
            retry_delay=0.01,
            timeout=0.2,
        )


def test_clean_shutdown_closes_clients():
    server = ReproServer(make_engine(), port=0).start_in_thread()
    client = connect(port=server.port)
    assert client.execute("SELECT COUNT(*) FROM car").row_count == 1
    server.stop_from_thread()
    with pytest.raises(ProtocolError):
        for _ in range(10):  # the close may race the next send
            client.execute("SELECT COUNT(*) FROM car")
            time.sleep(0.05)
    client.close()
