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
``\\stats`` JITS state summary, ``\\tables`` table sizes, ``\\help``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from . import Engine, EngineConfig, JITSConfig, ReproError, SqlSyntaxError
from .workload import build_car_database

PROMPT = "repro> "


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JITS reproduction SQL shell (car-insurance database)",
    )
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
    parser.add_argument(
        "--scan-workers", type=int, default=0, metavar="N",
        help="process-parallel scan worker pool size (0 disables; scans "
        "shard across N forkserver workers over shared-memory columns)",
    )
    parser.add_argument(
        "--parallel-threshold", type=int, default=None, metavar="ROWS",
        help="minimum scanned row count before scans go parallel "
        "(default 32768)",
    )
    return parser


def make_engine(args: argparse.Namespace) -> Engine:
    config = make_config(args)
    db, _ = build_car_database(scale=args.scale, seed=args.seed)
    return Engine(db, config)


def make_config(args: argparse.Namespace) -> EngineConfig:
    """One EngineConfig construction from the parsed flags, so every value
    passes ``EngineConfig.__post_init__`` (bad ones raise ConfigError)."""
    knobs = dict(scan_workers=max(0, getattr(args, "scan_workers", 0) or 0))
    threshold = getattr(args, "parallel_threshold", None)
    if threshold is not None:
        knobs["parallel_threshold_rows"] = threshold
    if args.no_jits:
        jits = JITSConfig(enabled=False)
    else:
        jits = JITSConfig(enabled=True, s_max=args.smax)
        knobs["plan_cache_enabled"] = getattr(args, "fastpath", False)
    return EngineConfig(jits=jits, **knobs)


def format_rows(columns: List[str], rows, limit: int = 25) -> str:
    if not rows:
        return "(no rows)"
    shown = rows[:limit]
    text = [[_cell(v) for v in row] for row in shown]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in text))
        for i in range(len(columns))
    ]
    lines = [
        " | ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    lines += [" | ".join(v.ljust(w) for v, w in zip(r, widths)) for r in text]
    if len(rows) > limit:
        lines.append(f"... ({len(rows) - limit} more rows)")
    return "\n".join(lines)


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


def run_statement(
    engine, sql: str, explain: bool, out, result=None
) -> None:
    """Run one statement against an Engine or a network Client."""
    try:
        if explain:
            out.write(engine.explain(sql) + "\n")
            return
        if result is None:
            result = engine.execute(sql)
        if result.statement_type == "select":
            out.write(format_rows(result.columns, result.rows) + "\n")
            out.write(
                f"{result.row_count} row(s); compile "
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
        else:
            out.write(
                f"{result.statement_type}: {result.affected_rows} row(s)\n"
            )
    except SqlSyntaxError as exc:
        out.write(f"error: {exc}\n")
        out.write(format_error_caret(sql, exc))
    except ReproError as exc:
        out.write(f"error: {exc}\n")


def print_stats(engine: Engine, out) -> None:
    jits = engine.jits
    out.write(
        f"jits enabled={jits.config.enabled} s_max={jits.config.s_max}\n"
        f"collections={jits.total_collections} "
        f"archive={len(jits.archive)} histogram(s), "
        f"{jits.archive.total_cells} cell(s)\n"
        f"history={len(jits.history)} entry(ies), "
        f"residual stats={len(jits.residual_store)}\n"
        f"migrations={jits.total_migrations}\n"
    )
    sc, mc = jits.sample_cache, jits.mask_cache
    out.write(
        f"sample cache: {sc.hits} hit(s), {sc.misses} miss(es), "
        f"{sc.invalidations} invalidation(s)\n"
        f"mask cache: {mc.hits} hit(s), {mc.misses} miss(es), "
        f"{len(mc)} entry(ies)\n"
        f"deferred recalibrations={jits.archive.deferred_recalibrations}\n"
    )
    if engine.plan_cache is not None:
        pc = engine.plan_cache
        out.write(
            f"plan cache: {pc.hits} hit(s), {pc.misses} miss(es), "
            f"{pc.invalidations} invalidation(s), {len(pc)} plan(s)\n"
        )
    if engine.parallel is not None:
        par = engine.parallel.stats()
        out.write(
            f"parallel scans [{par['process_path']}]: "
            f"{par['parallel_calls']} pooled, {par['inline_calls']} inline, "
            f"{par['fallbacks']} fallback(s), "
            f"{par['tables_exported']} table export(s), "
            f"{par['worker_respawns']} respawn(s)\n"
        )
        fragments = ", ".join(
            f"{kind}={count}" for kind, count in par["fragments"].items()
        )
        out.write(f"plan fragments: {fragments or 'none'}\n")

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
    """Run one statement over the wire, painting streamed batches as they
    arrive — the first chunk prints before the server finishes the
    result. Ctrl-C while a statement runs cancels it server-side and
    marks the output ``[cancelled]`` instead of killing the shell."""
    import time as time_module

    if explain:
        try:
            out.write(client.explain(sql, busy_retries=busy_retries) + "\n")
        except SqlSyntaxError as exc:
            out.write(f"error: {exc}\n")
            out.write(format_error_caret(sql, exc))
        except ReproError as exc:
            out.write(f"error: {exc}\n")
        return

    limit = 25
    state = {"widths": None, "shown": 0}

    def paint(columns: List[str], rows) -> None:
        if state["widths"] is None:
            text = [[_cell(v) for v in row] for row in rows[:limit]]
            state["widths"] = [
                max(len(columns[i]), *(len(r[i]) for r in text))
                if text
                else len(columns[i])
                for i in range(len(columns))
            ]
            widths = state["widths"]
            out.write(
                " | ".join(c.ljust(w) for c, w in zip(columns, widths))
                + "\n"
            )
            out.write("-+-".join("-" * w for w in widths) + "\n")
        budget = limit - state["shown"]
        if budget > 0:
            widths = state["widths"]
            for row in rows[:budget]:
                out.write(
                    " | ".join(
                        _cell(v).ljust(w) for v, w in zip(row, widths)
                    )
                    + "\n"
                )
        state["shown"] += len(rows)
        out.flush()

    started = time_module.perf_counter()
    try:
        result = client.execute_streaming(
            sql, paint, busy_retries=busy_retries
        )
    except KeyboardInterrupt:
        try:
            client.cancel(client.last_request_id)
        except ReproError:
            pass
        out.write("\n[cancelled]\n")
        return
    except SqlSyntaxError as exc:
        out.write(f"error: {exc}\n")
        out.write(format_error_caret(sql, exc))
        return
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return
    elapsed = time_module.perf_counter() - started
    if result.statement_type == "select":
        if not result.rows:
            out.write("(no rows)\n")
        elif state["shown"] > limit:
            out.write(f"... ({state['shown'] - limit} more rows)\n")
        mode = "streamed" if result.streamed else "whole"
        out.write(
            f"{result.row_count} row(s) ({mode}) in {elapsed * 1000:.2f} "
            f"ms; compile {result.compile_time * 1000:.2f} ms, execute "
            f"{result.execution_time * 1000:.2f} ms\n"
        )
    else:
        out.write(
            f"{result.statement_type}: {result.affected_rows} row(s)\n"
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
        stats=lambda: print_stats(engine, out),
        tables=lambda: print_tables(engine, out),
    )


def network_repl(client, stdin, out, busy_retries: int = 0) -> None:
    """The same shell, statements shipped to a remote server; results
    render incrementally as chunks arrive and Ctrl-C cancels the
    running statement instead of exiting."""

    def stats() -> None:
        try:
            print_stats_dict(client.stats(), out)
        except ReproError as exc:
            out.write(f"error: {exc}\n")

    def tables() -> None:
        try:
            for name, rows in client.stats().get("tables", {}).items():
                out.write(f"{name} ({rows} rows)\n")
        except ReproError as exc:
            out.write(f"error: {exc}\n")

    def run(executor, sql, explain, out):
        run_network_statement(
            executor, sql, explain, out, busy_retries=busy_retries
        )

    _repl_loop(client, stdin, out, stats=stats, tables=tables, run=run)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve the car database over the repro wire protocol",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=None,
        help="listening port (default 7433; 0 picks an ephemeral port)",
    )
    parser.add_argument("--scale", type=float, default=0.002)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-jits", action="store_true")
    parser.add_argument("--smax", type=float, default=0.5)
    parser.add_argument("--fastpath", action="store_true")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="executor thread-pool width (default: --max-inflight)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="global admission limit: statements executing at once",
    )
    parser.add_argument(
        "--per-client-inflight", type=int, default=4, metavar="N",
        help="per-connection admission cap before BUSY frames",
    )
    parser.add_argument(
        "--stream-threshold", type=int, default=256, metavar="ROWS",
        help="SELECT results with at least this many rows stream as "
        "binary chunks (default 256)",
    )
    parser.add_argument(
        "--chunk-rows", type=int, default=None, metavar="ROWS",
        help="rows per binary chunk frame (default 65536)",
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
            workers=args.workers,
            max_inflight=args.max_inflight,
            per_client_inflight=args.per_client_inflight,
            stream_threshold_rows=args.stream_threshold,
            **(
                {"chunk_rows": args.chunk_rows}
                if args.chunk_rows is not None
                else {}
            ),
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
