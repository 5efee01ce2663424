"""Differential execution harness.

Runs one seeded workload through several engine configurations —
``sequential`` (single session, no parallelism), ``threaded`` (concurrent
client sessions over ``execute_many``) and ``process`` (the
process-parallel scan pool) — and asserts they are observationally
identical: per-statement result sets, final table contents, accounting
counters and (where scheduling permits) full statistics snapshots.

The comparisons are canonical-form string/hashes, so tests print small
readable diffs instead of dumping row sets.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import Engine, EngineConfig

#: The three execution modes the harness differentiates.
MODES = ("sequential", "threaded", "process")


# ----------------------------------------------------------------------
# Engine factories
# ----------------------------------------------------------------------
def make_engine(db, config: EngineConfig, threshold_rows: int = 64) -> Engine:
    """An engine over ``db`` whose scan pool, if it has one, shards tables
    of ``threshold_rows`` rows and up, so mini-scale test tables reach it."""
    engine = Engine(db, config)
    if engine.parallel is not None:
        engine.parallel.threshold_rows = threshold_rows
    return engine


def engine_for_mode(
    mode: str,
    build_db: Callable[[], object],
    base_config: Callable[[], EngineConfig],
    scan_workers: int = 4,
    threshold_rows: int = 64,
) -> Engine:
    """A fresh engine for one mode over a freshly built (seeded) database.

    ``build_db`` must return an identical database every call (same seed);
    ``base_config`` a fresh config every call. The process mode lowers the
    parallel threshold so mini-scale test tables actually shard.
    """
    if mode not in MODES:
        raise ValueError(f"unknown differential mode {mode!r}")
    config = base_config()
    if mode == "process":
        config.scan_workers = scan_workers
    return make_engine(build_db(), config, threshold_rows)


# ----------------------------------------------------------------------
# Canonical forms
# ----------------------------------------------------------------------
def canonical_result(result) -> str:
    """Order-independent canonical form of one statement's outcome."""
    if result.rows is not None:
        return repr(sorted(repr(row) for row in result.rows))
    return f"{result.statement_type}:{result.affected_rows}"


def table_state(engine: Engine) -> Dict[str, tuple]:
    """Per-table (row_count, udi_total, content-hash of the sorted rows)."""
    state = {}
    for name in sorted(engine.database.table_names()):
        table = engine.database.table(name)
        rows = table.fetch_rows(None, table.schema.column_names())
        digest = hashlib.sha256(
            "\n".join(sorted(repr(r) for r in rows)).encode()
        ).hexdigest()
        state[name] = (table.row_count, table.udi_total, digest)
    return state


def stats_fingerprint(engine: Engine, full: bool = False) -> Dict[str, object]:
    """A comparable slice of ``stats_snapshot()``.

    The default slice is deterministic across *all* modes (threaded
    scheduling permutes shared-rng draw order, so sampling-derived stores
    diverge there). ``full=True`` adds the JITS store sizes — valid when
    both engines executed the workload in the same statement order
    (sequential vs process).
    """
    snap = engine.stats_snapshot()
    fp: Dict[str, object] = {
        "statements_executed": snap["engine"]["statements_executed"],
        "clock": snap["engine"]["clock"],
        "tables": snap["tables"],
    }
    if full:
        jits = dict(snap["jits"])
        jits.pop("deferred_recalibrations", None)  # batching, not content
        fp["jits"] = jits
    return fp


# ----------------------------------------------------------------------
# Workload execution
# ----------------------------------------------------------------------
def _is_select(sql: str) -> bool:
    return sql.lstrip().upper().startswith("SELECT")


def run_workload(
    engine: Engine, statements: Sequence[str], mode: str, workers: int = 4
) -> List[str]:
    """Execute the workload in mode-appropriate fashion; canonical results
    are returned in statement order regardless of scheduling.

    ``threaded`` batches *consecutive SELECT runs* through concurrent
    sessions and serializes DML between batches — the concurrency
    contract the engine guarantees result-set equality for.
    """
    out: List[Optional[str]] = [None] * len(statements)
    if mode == "threaded":
        i = 0
        while i < len(statements):
            if _is_select(statements[i]):
                j = i
                while j < len(statements) and _is_select(statements[j]):
                    j += 1
                batch = list(statements[i:j])
                results = engine.execute_many(batch, workers=workers)
                for k, result in enumerate(results):
                    out[i + k] = canonical_result(result)
                i = j
            else:
                out[i] = canonical_result(engine.execute(statements[i]))
                i += 1
    else:
        for i, sql in enumerate(statements):
            out[i] = canonical_result(engine.execute(sql))
    return out  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Assertions
# ----------------------------------------------------------------------
def assert_same_final_state(a: Engine, b: Engine) -> None:
    """Byte-identical final table contents plus accounting counters."""
    assert table_state(a) == table_state(b)
    assert a.clock == b.clock
    assert a.statements_executed == b.statements_executed


def run_differential(
    statements: Sequence[str],
    build_db: Callable[[], object],
    base_config: Callable[[], EngineConfig],
    modes: Sequence[str] = MODES,
    workers: int = 4,
    scan_workers: int = 4,
    threshold_rows: int = 64,
) -> Dict[str, Engine]:
    """Run the workload through every mode and assert equivalence.

    Per-statement result sets and final table state must agree across all
    modes; full statistics fingerprints must agree between the two
    statement-ordered modes (sequential vs process). Returns the engines
    (still open) so callers can make further assertions; callers own
    ``shutdown()``.
    """
    engines: Dict[str, Engine] = {}
    results: Dict[str, List[str]] = {}
    try:
        for mode in modes:
            engine = engine_for_mode(
                mode,
                build_db,
                base_config,
                scan_workers=scan_workers,
                threshold_rows=threshold_rows,
            )
            engines[mode] = engine
            results[mode] = run_workload(
                engine, statements, mode, workers=workers
            )
    except BaseException:
        for engine in engines.values():
            engine.shutdown()
        raise

    baseline = modes[0]
    for mode in modes[1:]:
        for i, sql in enumerate(statements):
            assert results[mode][i] == results[baseline][i], (
                f"{mode} vs {baseline} diverged on statement {i}: {sql}"
            )
        assert_same_final_state(engines[mode], engines[baseline])
    if "sequential" in engines and "process" in engines:
        assert stats_fingerprint(
            engines["process"], full=True
        ) == stats_fingerprint(engines["sequential"], full=True)
    return engines


# ----------------------------------------------------------------------
# Snapshot-isolation torture schedules
# ----------------------------------------------------------------------
@dataclass
class TortureReport:
    """What one torture schedule executed and proved.

    Every reader result was validated against a sequential replay of the
    writer DML at the reader's pinned per-table snapshot stamps.
    """

    dml_executed: int = 0
    reads_validated: int = 0
    runstats_passes: int = 0
    parallel_calls: int = 0  # pool dispatches of the concurrent engine
    generations: Dict[str, int] = field(default_factory=dict)


def _table_content(table) -> List[tuple]:
    return table.fetch_rows(None, table.schema.column_names())


def _scratch_database(schemas, contents: Dict[str, List[tuple]]):
    """A throwaway Database loaded with per-table recorded contents."""
    from repro.storage import Database

    db = Database("torture-check")
    for schema in schemas:
        table = db.create_table(schema)
        names = schema.column_names()
        rows = contents[schema.name.lower()]
        if rows:
            table.insert_rows([dict(zip(names, row)) for row in rows])
    return db


def run_torture_schedule(
    build_db: Callable[[], object],
    base_config: Callable[[], EngineConfig],
    writer_streams: Sequence[Sequence[str]],
    reader_pool: Sequence[str],
    seed: int,
    n_readers: int = 3,
    reads_per_reader: int = 8,
    runstats_every: int = 0,
) -> TortureReport:
    """Run one randomized concurrent reader/writer schedule and check
    snapshot isolation end to end.

    Writers (one thread per stream) execute single-table DML through
    their own sessions while ``n_readers`` reader threads execute SELECTs
    drawn (seeded) from ``reader_pool`` — plus, optionally, whole-engine
    RUNSTATS passes.

    Validation replays every DML statement **sequentially** on a fresh
    identical database in publish-stamp order (per-table stamp order is
    the serialization order the per-table write locks enforced), records
    each table's content at every published stamp, and then re-evaluates
    every reader's statement against the recorded contents at the
    reader's pinned ``(table -> stamp)`` view via the reference executor.
    Every reader result must match exactly; per-statement affected-row
    counts and the final table contents must match the replay too.
    """
    from repro.executor import run_reference
    from repro.sql import build_query_graph, parse_select

    engine = make_engine(build_db(), base_config())
    writes: List[List[Tuple[str, int, Dict[str, Tuple[int, int]]]]] = [
        [] for _ in writer_streams
    ]
    reads: List[List[Tuple[str, List[tuple], Dict[str, Tuple[int, int]]]]] = [
        [] for _ in range(n_readers)
    ]
    runstats_done = [0]
    dml_done = [0]
    errors: List[BaseException] = []
    start = threading.Barrier(len(writer_streams) + n_readers)

    def writer(index: int, stream: Sequence[str]) -> None:
        try:
            session = engine.session()
            start.wait()
            for sql in stream:
                result = session.execute(sql)
                dml_done[0] += 1
                if not result.snapshots:
                    # A statement that matched nothing mutates nothing and
                    # publishes nothing — it has no place on the replay
                    # timeline.
                    assert result.affected_rows == 0, sql
                    continue
                writes[index].append(
                    (sql, result.affected_rows, dict(result.snapshots))
                )
        except BaseException as exc:  # noqa: BLE001 - surfaced in the test
            errors.append(exc)

    def reader(index: int) -> None:
        try:
            rng = random.Random((seed << 8) ^ (index * 7919))
            session = engine.session()
            start.wait()
            for i in range(reads_per_reader):
                if runstats_every and i % runstats_every == runstats_every - 1:
                    # RUNSTATS is a snapshot reader under MVCC: it must
                    # complete while writers hold table write locks.
                    engine.collect_general_statistics()
                    runstats_done[0] += 1
                    continue
                sql = rng.choice(list(reader_pool))
                result = session.execute(sql)
                assert result.snapshots is not None, sql
                reads[index].append(
                    (sql, result.rows, dict(result.snapshots))
                )
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(i, stream))
        for i, stream in enumerate(writer_streams)
    ] + [threading.Thread(target=reader, args=(i,)) for i in range(n_readers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180)
    try:
        assert not any(t.is_alive() for t in threads), "torture schedule hung"
        if errors:
            raise errors[0]

        # -- sequential replay in publish-stamp order -------------------
        replay = make_engine(build_db(), base_config())
        try:
            schemas = [
                replay.database.table(n).schema
                for n in sorted(replay.database.table_names())
            ]
            content: Dict[str, Dict[int, List[tuple]]] = {}
            for schema in schemas:
                key = schema.name.lower()
                table = replay.database.table(key)
                content[key] = {table.snapshot_stamp: _table_content(table)}

            timeline: List[Tuple[int, str, str, int]] = []
            for stream in writes:
                for sql, affected, snapshots in stream:
                    assert len(snapshots) == 1, (
                        "torture writers must target one table per "
                        f"statement: {sql}"
                    )
                    ((name, (_epoch, stamp)),) = snapshots.items()
                    timeline.append((stamp, name, sql, affected))
            timeline.sort(key=lambda entry: entry[0])
            stamps = [entry[0] for entry in timeline]
            assert len(set(stamps)) == len(stamps), "publish stamps collided"

            report = TortureReport(
                dml_executed=dml_done[0],
                runstats_passes=runstats_done[0],
                parallel_calls=(
                    engine.parallel.parallel_calls if engine.parallel else 0
                ),
            )
            for stamp, name, sql, affected in timeline:
                replayed = replay.execute(sql)
                assert replayed.affected_rows == affected, (
                    f"replay diverged on {sql!r}: "
                    f"{replayed.affected_rows} != {affected}"
                )
                content[name][stamp] = _table_content(
                    replay.database.table(name)
                )
            for key, by_stamp in content.items():
                report.generations[key] = len(by_stamp)

            # Final live contents must agree (same per-table DML order).
            for schema in schemas:
                key = schema.name.lower()
                assert _table_content(engine.database.table(key)) == (
                    _table_content(replay.database.table(key))
                ), f"final content diverged for table {key!r}"

            # -- validate every reader at its pinned stamps -------------
            expected_cache: Dict[Tuple, List[tuple]] = {}
            for per_reader in reads:
                for sql, rows, pinned in per_reader:
                    view_key = (sql, tuple(sorted(
                        (name, stamp)
                        for name, (_e, stamp) in pinned.items()
                    )))
                    expected = expected_cache.get(view_key)
                    if expected is None:
                        contents: Dict[str, List[tuple]] = {}
                        for name, (_epoch, stamp) in pinned.items():
                            assert stamp in content[name], (
                                f"reader pinned unknown stamp {stamp} "
                                f"for table {name!r}"
                            )
                            contents[name] = content[name][stamp]
                        scratch = _scratch_database(
                            [
                                s for s in schemas
                                if s.name.lower() in contents
                            ],
                            contents,
                        )
                        block = build_query_graph(
                            parse_select(sql), scratch
                        )
                        expected = sorted(run_reference(block, scratch))
                        expected_cache[view_key] = expected
                    assert sorted(rows) == expected, (
                        f"reader diverged from its pinned view on {sql!r} "
                        f"at {pinned}"
                    )
                    report.reads_validated += 1
            return report
        finally:
            replay.shutdown()
    finally:
        engine.shutdown()
