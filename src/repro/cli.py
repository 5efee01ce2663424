"""Command-line interface: a small SQL shell over the car database.

Usage::

    python -m repro                       # interactive shell, JITS on
    python -m repro --no-jits             # traditional optimizer
    python -m repro --scale 0.01          # bigger data
    python -m repro -e "SELECT COUNT(*) FROM car"   # one-shot
    python -m repro --explain -e "SELECT ..."       # plan only
    python -m repro serve --port 7433     # network server
    python -m repro connect --port 7433   # shell against a server

Shell commands: ``\\q`` quit, ``\\explain <sql>`` plan without executing,
``\\stats`` engine/JITS counter snapshot, ``\\tables`` table sizes,
``\\help``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import sys
import time
from typing import List, Optional

from . import Engine, EngineConfig, ReproError, SqlSyntaxError
from .workload import build_car_database

PROMPT = "repro> "


def engine_flags() -> argparse.ArgumentParser:
    """The engine flags ``repro`` and ``repro serve`` share (an argparse
    parent parser): the car database and the :class:`EngineConfig`."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--scale", type=float, default=0.002,
        help="fraction of the paper's Table 2 row counts (default 0.002)",
    )
    parser.add_argument("--seed", type=int, default=0, help="data seed")
    parser.add_argument(
        "--no-jits", action="store_true", help="disable JITS (traditional)"
    )
    parser.add_argument(
        "--smax", type=float, default=0.5,
        help="sensitivity threshold s_max (default 0.5)",
    )
    parser.add_argument(
        "--fastpath", action="store_true",
        help="enable the plan cache (repeated statements skip compilation)",
    )
    parser.add_argument(
        "--scan-workers", type=int, default=0, metavar="N",
        help="process-parallel scan worker pool size (0 disables; scans "
        "shard across N forkserver workers over shared-memory columns)",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JITS reproduction SQL shell (car-insurance database)",
        parents=[engine_flags()],
    )
    parser.add_argument(
        "-e", "--execute", metavar="SQL", action="append",
        help="execute one statement and exit (repeatable)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="with -e: print the plan instead of executing",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run multiple -e statements across N concurrent client "
        "sessions (results print in statement order)",
    )
    return parser


def make_engine(args: argparse.Namespace) -> Engine:
    config = make_config(args)
    db, _ = build_car_database(scale=args.scale, seed=args.seed)
    return Engine(db, config)


def make_config(args: argparse.Namespace) -> EngineConfig:
    """The EngineConfig of the parsed engine flags. ``replace`` re-runs
    ``EngineConfig.__post_init__``, so a bad value raises ConfigError."""
    if args.no_jits:
        config = EngineConfig.traditional()
    else:
        config = EngineConfig.with_jits(
            plan_cache_enabled=args.fastpath, s_max=args.smax
        )
    return dataclasses.replace(config, scan_workers=args.scan_workers)


class ResultTable:
    """The shells' one result renderer: a text table painted batch by
    batch (the network shell paints each chunk as it decodes). The first
    batch fixes the column widths, at most ``limit`` rows print, and
    :meth:`finish` notes an empty result or the rows left out."""

    def __init__(self, out, limit: int = 25):
        self.out = out
        self.limit = limit
        self.widths: Optional[List[int]] = None
        self.rows_seen = 0

    def add(self, columns: List[str], rows) -> None:
        if not rows:
            return
        shown = [
            [_cell(v) for v in row]
            for row in rows[: max(0, self.limit - self.rows_seen)]
        ]
        if self.widths is None:
            self.widths = [
                max([len(name)] + [len(cells[i]) for cells in shown])
                for i, name in enumerate(columns)
            ]
            self._line(columns)
            self.out.write("-+-".join("-" * w for w in self.widths) + "\n")
        for cells in shown:
            self._line(cells)
        self.rows_seen += len(rows)
        self.out.flush()

    def finish(self) -> None:
        if not self.rows_seen:
            self.out.write("(no rows)\n")
        elif self.rows_seen > self.limit:
            self.out.write(f"... ({self.rows_seen - self.limit} more rows)\n")

    def _line(self, cells: List[str]) -> None:
        self.out.write(
            " | ".join(c.ljust(w) for c, w in zip(cells, self.widths)) + "\n"
        )


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_error_caret(sql: str, exc: SqlSyntaxError) -> str:
    """A caret line pointing at the offending token, or ''."""
    position = getattr(exc, "position", -1)
    if not isinstance(position, int) or not 0 <= position <= len(sql):
        return ""
    return f"  {sql}\n  {' ' * position}^\n"


@contextlib.contextmanager
def reported_errors(out, sql: str = ""):
    """The shells' one error report: a failed statement prints its
    message, a syntax error also a caret under the offending token."""
    try:
        yield
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        if isinstance(exc, SqlSyntaxError):
            out.write(format_error_caret(sql, exc))


def report_result(
    result, table: ResultTable, out, elapsed: Optional[float] = None
) -> None:
    """Close a statement's output: a SELECT's table and timing line (with
    the wall time over the wire, JITS notes in process), or the row count
    of a DML/DDL statement."""
    if result.statement_type != "select":
        out.write(f"{result.statement_type}: {result.affected_rows} row(s)\n")
        return
    table.finish()
    wall = "" if elapsed is None else f" in {elapsed * 1000:.2f} ms"
    out.write(
        f"{result.row_count} row(s){wall}; compile "
        f"{result.compile_time * 1000:.2f} ms, execute "
        f"{result.execution_time * 1000:.2f} ms\n"
    )
    report = result.jits_report
    if report is not None and report.plan_cache_hit:
        out.write("[plan cache] hit — compilation skipped\n")
    if report is not None and report.tables_collected:
        out.write(
            f"[jits] sampled {', '.join(report.tables_collected)}; "
            f"{report.collection.groups_computed} group(s), "
            f"{report.collection.groups_materialized} materialized\n"
        )


def run_statement(
    engine, sql: str, explain: bool, out, result=None
) -> None:
    """Run one statement in process (or report ``result``, already run)."""
    with reported_errors(out, sql):
        if explain:
            out.write(engine.explain(sql) + "\n")
            return
        if result is None:
            result = engine.execute(sql)
        table = ResultTable(out)
        table.add(result.columns, result.rows)
        report_result(result, table, out)


def print_tables(engine: Engine, out) -> None:
    for table in engine.database.tables():
        columns = ", ".join(
            f"{c.name}:{c.dtype.value}" for c in table.schema.columns
        )
        out.write(f"{table.name} ({table.row_count} rows): {columns}\n")


def print_stats_dict(stats: dict, out, indent: str = "") -> None:
    """Render a (possibly nested) stats snapshot, one counter per line."""
    for key, value in stats.items():
        if isinstance(value, dict):
            out.write(f"{indent}{key}:\n")
            print_stats_dict(value, out, indent + "  ")
        else:
            out.write(f"{indent}{key}={value}\n")


def run_network_statement(
    client, sql: str, explain: bool, out, busy_retries: int = 0
) -> None:
    """Run one statement over the wire, painting each chunk's rows as it
    decodes — the first chunk prints before the server finishes the
    result. Ctrl-C while a statement runs cancels it server-side and
    marks the output ``[cancelled]`` instead of killing the shell."""
    with reported_errors(out, sql):
        if explain:
            out.write(client.explain(sql, busy_retries=busy_retries) + "\n")
            return
        table = ResultTable(out)
        started = time.perf_counter()
        try:
            result = client.execute_streaming(
                sql, table.add, busy_retries=busy_retries
            )
        except KeyboardInterrupt:
            with contextlib.suppress(ReproError):
                client.cancel(client.last_request_id)
            out.write("\n[cancelled]\n")
            return
        report_result(
            result, table, out, elapsed=time.perf_counter() - started
        )


def _repl_loop(executor, stdin, out, stats, tables, run=run_statement) -> None:
    out.write(
        "repro SQL shell — \\help for commands, \\q to quit.\n"
    )
    buffer: List[str] = []
    while True:
        out.write(PROMPT if not buffer else "  ...> ")
        out.flush()
        line = stdin.readline()
        if not line:
            break
        line = line.strip()
        if not buffer and line.startswith("\\"):
            command, _, rest = line.partition(" ")
            if command in ("\\q", "\\quit"):
                break
            if command == "\\help":
                out.write(
                    "\\q quit | \\explain <sql> | \\stats | \\tables | "
                    "end statements with ';'\n"
                )
            elif command == "\\stats":
                stats()
            elif command == "\\tables":
                tables()
            elif command == "\\explain":
                run(executor, rest.rstrip(";"), explain=True, out=out)
            else:
                out.write(f"unknown command {command}\n")
            continue
        if line:
            buffer.append(line)
        if line.endswith(";"):
            sql = " ".join(buffer).rstrip(";")
            buffer = []
            if sql.strip():
                run(executor, sql, explain=False, out=out)


def repl(engine: Engine, stdin, out) -> None:
    _repl_loop(
        engine,
        stdin,
        out,
        stats=lambda: print_stats_dict(engine.stats_snapshot(), out),
        tables=lambda: print_tables(engine, out),
    )


def network_repl(client, stdin, out, busy_retries: int = 0) -> None:
    """The same shell, statements shipped to a remote server; results
    render incrementally as chunks arrive and Ctrl-C cancels the
    running statement instead of exiting."""

    def stats() -> None:
        with reported_errors(out):
            print_stats_dict(client.stats(), out)

    def tables() -> None:
        with reported_errors(out):
            for name, rows in client.stats().get("tables", {}).items():
                out.write(f"{name} ({rows} rows)\n")

    def run(executor, sql, explain, out):
        run_network_statement(
            executor, sql, explain, out, busy_retries=busy_retries
        )

    _repl_loop(client, stdin, out, stats=stats, tables=tables, run=run)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve the car database over the repro wire protocol",
        parents=[engine_flags()],
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=None,
        help="listening port (default 7433; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="global admission limit: statements executing at once "
        "(also the executor thread-pool width)",
    )
    parser.add_argument(
        "--per-client-inflight", type=int, default=4, metavar="N",
        help="per-connection admission cap before BUSY frames",
    )
    return parser


async def _serve_async(server, out) -> None:
    await server.start()
    out.write(f"listening on {server.host}:{server.port}\n")
    out.flush()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
        out.write("server stopped\n")


def serve_main(argv: Optional[List[str]] = None) -> int:
    from .server import DEFAULT_PORT, ReproServer

    args = build_serve_parser().parse_args(argv)
    out = sys.stdout
    out.write(f"building car database (scale={args.scale}) ...\n")
    port = args.port if args.port is not None else DEFAULT_PORT
    try:
        engine = make_engine(args)
        server = ReproServer(
            engine,
            host=args.host,
            port=port,
            max_inflight=args.max_inflight,
            per_client_inflight=args.per_client_inflight,
        )
        asyncio.run(_serve_async(server, out))
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 1
    except KeyboardInterrupt:
        out.write("interrupted\n")
    return 0


def build_connect_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro connect",
        description="Connect the SQL shell to a running repro server",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument(
        "--busy-retries", type=int, default=8, metavar="N",
        help="retries (with backoff) when the server answers BUSY",
    )
    parser.add_argument(
        "-e", "--execute", metavar="SQL", action="append",
        help="execute one statement and exit (repeatable)",
    )
    parser.add_argument("--explain", action="store_true")
    return parser


def connect_main(argv: Optional[List[str]] = None) -> int:
    from .server import DEFAULT_PORT, connect

    args = build_connect_parser().parse_args(argv)
    out = sys.stdout
    port = args.port if args.port is not None else DEFAULT_PORT
    try:
        client = connect(host=args.host, port=port, timeout=args.timeout)
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 1
    with client:
        out.write(f"connected to {args.host}:{port} "
                  f"({client.server_info.get('server', '?')}, "
                  f"protocol v{client.server_info.get('version', '?')})\n")
        if args.execute:
            for sql in args.execute:
                run_network_statement(
                    client, sql, explain=args.explain, out=out,
                    busy_retries=args.busy_retries,
                )
            return 0
        network_repl(client, sys.stdin, out, busy_retries=args.busy_retries)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "connect":
        return connect_main(argv[1:])
    args = build_parser().parse_args(argv)
    out = sys.stdout
    out.write(f"building car database (scale={args.scale}) ...\n")
    try:
        engine = make_engine(args)
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 1
    sizes = ", ".join(
        f"{t.name}={t.row_count}" for t in engine.database.tables()
    )
    out.write(f"ready: {sizes}\n")
    if args.execute:
        if args.workers > 1 and not args.explain and len(args.execute) > 1:
            try:
                results = engine.execute_many(
                    args.execute, workers=args.workers
                )
            except ReproError as exc:
                out.write(f"error: {exc}\n")
                return 1
            for sql, result in zip(args.execute, results):
                run_statement(
                    engine, sql, explain=False, out=out, result=result
                )
        else:
            for sql in args.execute:
                run_statement(engine, sql, explain=args.explain, out=out)
        return 0
    repl(engine, sys.stdin, out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
