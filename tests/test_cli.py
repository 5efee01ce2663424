"""CLI smoke tests (in-process, no subprocess)."""

import io

import pytest

from repro import EngineConfig, JITSConfig
from repro.cli import (
    build_parser,
    build_serve_parser,
    connect_main,
    ResultTable,
    format_error_caret,
    main,
    make_config,
    make_engine,
    network_repl,
    repl,
    run_statement,
)


def test_one_shot_execute(capsys):
    code = main(
        ["--scale", "0.0004", "-e", "SELECT COUNT(*) FROM owner", "--no-jits"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "1 row(s)" in out
    assert "col0" in out


def test_one_shot_explain(capsys):
    code = main(
        [
            "--scale", "0.0004", "--explain",
            "-e", "SELECT o.name FROM car c, owner o WHERE c.ownerid = o.id",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Join" in out or "Scan" in out


def test_one_shot_dml_and_error(capsys):
    code = main(
        [
            "--scale", "0.0004", "--no-jits",
            "-e", "DELETE FROM accidents WHERE id < 5",
            "-e", "SELECT bogus FROM owner",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "delete:" in out
    assert "error:" in out


def test_bad_config_value_exits_with_config_error(capsys):
    code = main(
        ["--scale", "0.0004", "--scan-workers", "-1",
         "-e", "SELECT 1 FROM car"]
    )
    out = capsys.readouterr().out
    assert code != 0
    assert "error: scan_workers must be >= 0, got -1" in out
    assert "row(s)" not in out


@pytest.mark.parametrize("build", [build_parser, build_serve_parser])
def test_both_shells_parse_one_engine_flag_set(build):
    args = build().parse_args(
        ["--scale", "0.0004", "--seed", "3", "--smax", "0.25",
         "--fastpath", "--scan-workers", "2"]
    )
    assert (args.scale, args.seed) == (0.0004, 3)
    assert make_config(args) == EngineConfig(
        jits=JITSConfig(s_max=0.25), plan_cache_enabled=True, scan_workers=2
    )
    args = build().parse_args(["--no-jits", "--fastpath"])
    assert make_config(args) == EngineConfig.traditional()


@pytest.mark.parametrize(
    "flag",
    [
        "--no-mvcc",
        "--snapshot-chunk-rows=4",
        "--snapshot-retention=2",
        "--no-caches",
        "--stream-threshold=8",
        "--chunk-rows=8",
        "--parallel-threshold=64",
    ],
)
def test_removed_snapshot_flags_are_argparse_errors(capsys, flag):
    for argv in (
        ["--scale", "0.0004", flag, "-e", "SELECT 1 FROM car"],
        ["serve", "--scale", "0.0004", flag],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_jits_note_printed(capsys):
    code = main(
        [
            "--scale", "0.0004", "--smax", "0.0",
            "-e", "SELECT id FROM car WHERE make = 'Toyota'",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[jits] sampled car" in out


def paint(batches, limit=25) -> str:
    out = io.StringIO()
    table = ResultTable(out, limit=limit)
    for rows in batches:
        table.add(["a"], rows)
    table.finish()
    return out.getvalue()


def test_format_rows_truncates():
    # Batches as a stream delivers them: widths from the first, at most
    # ``limit`` rows shown across all of them.
    text = paint([[(i,) for i in range(3)], [(i,) for i in range(3, 30)]], 5)
    lines = text.splitlines()
    assert lines[0].strip() == "a"
    assert [line.strip() for line in lines[2:7]] == ["0", "1", "2", "3", "4"]
    assert lines[7:] == ["... (25 more rows)"]


def test_format_rows_empty():
    assert paint([]) == "(no rows)\n"


def test_repl_commands():
    args = build_parser().parse_args(["--scale", "0.0004", "--no-jits"])
    engine = make_engine(args)
    stdin = io.StringIO(
        "\\help\n"
        "\\tables\n"
        "\\stats\n"
        "SELECT COUNT(*)\n"
        "FROM car;\n"
        "\\explain SELECT id FROM owner;\n"
        "\\bogus\n"
        "\\q\n"
    )
    out = io.StringIO()
    repl(engine, stdin, out)
    text = out.getvalue()
    assert "car (" in text
    assert "jits:\n  enabled=False" in text  # the stats_snapshot() dict
    assert "1 row(s)" in text
    assert "SeqScan" in text
    assert "unknown command" in text


def test_syntax_error_caret_points_at_token():
    args = build_parser().parse_args(["--scale", "0.0004", "--no-jits"])
    engine = make_engine(args)
    out = io.StringIO()
    sql = "SELECT id FROM car WHRE make = 'Toyota'"
    run_statement(engine, sql, explain=False, out=out)
    text = out.getvalue()
    assert "error:" in text
    lines = text.splitlines()
    assert lines[-2].strip() == sql
    caret = lines[-1]
    assert caret.strip() == "^"
    # The parser anchors the error at the token its message names.
    assert "near 'make'" in text
    assert caret.index("^") - 2 == sql.index("make")


def test_format_error_caret_bounds():
    from repro import SqlSyntaxError

    assert format_error_caret("SELECT", SqlSyntaxError("x", position=-1)) == ""
    assert format_error_caret("SELECT", SqlSyntaxError("x", position=99)) == ""
    assert "^" in format_error_caret("SELECT", SqlSyntaxError("x", position=0))


def test_serve_parser_knobs():
    args = build_serve_parser().parse_args(
        ["--port", "0", "--max-inflight", "3", "--per-client-inflight", "1"]
    )
    assert args.port == 0
    assert args.max_inflight == 3
    assert args.per_client_inflight == 1
    with pytest.raises(SystemExit):  # the pool is --max-inflight wide
        build_serve_parser().parse_args(["--workers", "2"])


@pytest.fixture
def live_server():
    from repro.server import ReproServer

    args = build_parser().parse_args(["--scale", "0.0004", "--no-jits"])
    server = ReproServer(make_engine(args), port=0).start_in_thread()
    yield server
    server.stop_from_thread()


def test_connect_main_one_shot(capsys, live_server):
    code = connect_main(
        [
            "--port", str(live_server.port),
            "-e", "SELECT COUNT(*) FROM owner",
            "-e", "DELETE FROM accidents WHERE id < 3",
            "-e", "SELECT id FROM car WHRE make = 'Toyota'",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "connected to 127.0.0.1" in out
    assert "1 row(s)" in out
    assert "delete:" in out
    # The caret travels over the wire via the error frame's position.
    assert "error:" in out
    assert "^" in out


def test_connect_main_refuses_dead_port(capsys):
    code = connect_main(["--port", "1", "--timeout", "0.2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "error:" in out


def test_network_repl_commands(live_server):
    from repro.server import connect

    client = connect(port=live_server.port)
    stdin = io.StringIO(
        "\\help\n"
        "\\tables\n"
        "\\stats\n"
        "SELECT COUNT(*) FROM car;\n"
        "\\explain SELECT id FROM owner;\n"
        "\\q\n"
    )
    out = io.StringIO()
    with client:
        network_repl(client, stdin, out)
    text = out.getvalue()
    assert "car (" in text
    assert "statements_executed=" in text
    assert "1 row(s)" in text
    assert "SeqScan" in text or "Scan" in text
