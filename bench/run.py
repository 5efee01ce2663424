#!/usr/bin/env python3
"""The benchmark: one command builds the data, runs the named workloads,
checks every result against the oracle and prints every metric by name.

Contract form (what ``BENCHMARK.json`` names; one workload, one JSON object
as the last line of stdout)::

    python3 bench/run.py --workload dss_mix --seed 7 --seconds 15 --trace 0

Suite form (every workload, or the one named; ``--trace`` adds the traced
run and its per-layer metrics to the same object)::

    python3 bench/run.py [--workload NAME] [--seed N] [--smoke] [--trace]
                         [--record] [--out FILE] [--regen-golden]

See ``bench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("bench: no program to measure here (src/repro is missing)")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import dataset, oracle, workloads  # noqa: E402
from bench.layers import layer_of  # noqa: E402
from bench.procs import Pipe, parent_pids  # noqa: E402
from bench.workloads import CHECK, SELECT, SPECS, WRITE_KINDS, Spec  # noqa: E402

OUT_DIR = BENCH_DIR / "out"
HISTORY = BENCH_DIR / "results" / "history.jsonl"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 1
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
SMOKE_SECONDS = 2.0

_clock = time.perf_counter


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Child:
    """One child process running ``procs.main`` and its message pipe."""

    def __init__(self, role: str, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        # Set iteration order over strings must not vary from run to run.
        env["PYTHONHASHSEED"] = "0"
        self.process = subprocess.Popen(
            # Imported, not run with -m: what it pickles must name bench.procs.
            [sys.executable, "-c", "from bench.procs import main; main()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        )
        self.pipe = Pipe(self.process.stdout, self.process.stdin)
        self.pipe.send((role, args))

    def ask(self, *request):
        """Send ``request`` (if any) and return the payload of the reply."""
        if request:
            self.pipe.send(request)
        ready, _, _ = select.select([self.process.stdout], [], [], CHILD_TIMEOUT_S)
        if not ready:
            raise RuntimeError(f"bench: no reply to {request} in {CHILD_TIMEOUT_S:.0f} s")
        try:
            return self.pipe.recv()[1]
        except EOFError:
            raise RuntimeError(
                f"bench: child exited with code {self.process.wait()} "
                f"instead of answering {request}"
            ) from None

    def stop(self):
        """Ask the child to tear down, wait until it has ended, and return
        its parting message (the server's memory use), if it sent one."""
        reply = None
        if self.process.poll() is None:
            try:
                self.pipe.send(("stop",))
                if select.select([self.process.stdout], [], [], CHILD_TIMEOUT_S)[0]:
                    reply = self.pipe.recv()[1]
            except (EOFError, OSError):
                pass  # it had nothing to say, or is already gone
        try:
            self.process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()
        return reply


def adopt_orphans() -> None:
    """Make this process the parent of last resort for everything below it
    (``PR_SET_CHILD_SUBREAPER``), so that a worker pool's forkserver or
    resource tracker that outlives its engine can still be waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: such helpers end by themselves


def reap_orphans(grace_s: float = 20.0) -> None:
    """Wait until every process this run started has ended; one that has
    not within ``grace_s`` is killed, then waited for."""
    deadline = _clock() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid == 0:
            if _clock() > deadline:
                for child, parent in parent_pids().items():
                    if parent == os.getpid():
                        os.kill(child, signal.SIGKILL)
                deadline = _clock() + grace_s
            time.sleep(0.02)


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def run_workload(
    spec: Spec, seed: int, seconds: float, trace: bool, smoke: bool,
    regen_golden: bool = False,
) -> dict:
    """Set up (several times when untraced), measure, verify. Returns
    ``{"correct", "attempted", "failed", "metrics", "samples", "detail"}``."""
    scale = spec.smoke_scale if smoke else spec.scale
    profile, build_s = dataset.ensure_cached(scale, spec.indexes)
    workload = workloads.generate(spec, profile, seed, smoke)
    fingerprint = oracle.statements_fingerprint(workload.streams, profile["data"])

    golden = None if regen_golden else oracle.load_golden(
        spec.name, seed, smoke, fingerprint
    )
    oracle_s = 0.0
    if golden is None:
        began = _clock()
        reference = Child("runner", spec, scale, workload, None, True, None)
        try:
            reference.ask()
            golden = reference.ask("round")
        finally:
            reference.stop()
        oracle_s = _clock() - began
        if regen_golden:
            oracle.save_golden(spec.name, seed, smoke, fingerprint, golden)

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = str(OUT_DIR / f"trace-{spec.name}.jsonl") if trace else None
    setups: List[float] = []
    server = runner = None
    try:
        for attempt in range(1 if (trace or smoke) else SETUP_REPEATS):
            if attempt:
                runner.stop()
                if server is not None:
                    server.stop()
            began = _clock()
            port = None
            server = None
            if spec.wire and not trace:
                server = Child("server", spec, scale)
                port = server.ask()["port"]
            runner = Child("runner", spec, scale, workload, port, False, trace_path)
            runner.ask()
            setups.append(_clock() - began)
        measured = runner.ask("measure", seconds)
    finally:
        if runner is not None:
            runner.stop()
        usage = server.stop() if server is not None else None
    peak_rss = (usage or measured)["peak_rss_mib"]

    result = _summarize(spec, workload, golden, measured, trace)
    if not trace:
        result["metrics"]["setup_s"] = _metric(statistics.median(setups), "s")
        result["metrics"]["peak_rss_mb"] = _metric(peak_rss, "MiB")
    result["detail"].update(
        seed=seed, scale=scale, seconds=seconds, setups_s=setups,
        data_build_s=build_s, oracle_s=oracle_s, measured_wall_s=measured["wall_s"],
    )
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _summarize(spec: Spec, workload, golden, measured: dict, trace: bool) -> dict:
    select_ms: List[float] = []
    write_ms: List[float] = []
    rtt_ms: List[float] = []
    attempted = failed = streamed = 0
    statements_per_s = rows_per_s = 0.0
    failures: List[str] = []
    overhead_traced = overhead_untraced = 0.0
    for stream, expected, records in zip(workload.streams, golden, measured["streams"]):
        busy = sum(r.latency_s for r in records)
        rows = 0
        by_index: Dict[int, Dict[bool, List[float]]] = defaultdict(lambda: defaultdict(list))
        for r in records:
            statement = stream[r.index]
            attempted += 1
            outcome = (r.count, r.digest)
            if r.error is not None or outcome != tuple(expected[r.index]):
                failed += 1
                if len(failures) < 5:
                    failures.append(
                        f"{statement.sql[:120]} -> {r.error or outcome} "
                        f"(expected {tuple(expected[r.index])})"
                    )
                continue
            milliseconds = r.latency_s * 1e3
            if statement.kind == SELECT:
                select_ms.append(milliseconds)
            elif statement.kind in WRITE_KINDS:
                write_ms.append(milliseconds)
            if statement.kind in (SELECT, CHECK):
                rows += r.count
            if r.server_s is not None:
                rtt_ms.append(milliseconds - r.server_s * 1e3)
            streamed += r.streamed
            by_index[r.index][r.traced].append(r.latency_s)
        if busy > 0.0:
            statements_per_s += len(records) / busy
            rows_per_s += rows / busy
        for pair in by_index.values():
            if pair[True] and pair[False]:
                overhead_traced += statistics.fmean(pair[True])
                overhead_untraced += statistics.fmean(pair[False])

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
        "samples": {"select": len(select_ms), "write": len(write_ms)},
        "detail": {"failures": failures, "streamed_results": streamed},
    }
    if not trace:
        result["metrics"] = {
            "select_p50_ms": _metric(_percentile(select_ms, 50), "ms"),
            "select_p95_ms": _metric(_percentile(select_ms, 95), "ms"),
            "write_p50_ms": _metric(_percentile(write_ms, 50), "ms"),
            "stmts_per_s": _metric(statements_per_s, "1/s"),
            "fetch_rows_per_s": _metric(rows_per_s, "rows/s"),
        }
        return result

    info = measured["trace"]
    overhead = (
        (overhead_traced / overhead_untraced - 1.0) * 100.0 if overhead_untraced else 0.0
    )
    result["metrics"] = _layer_metrics(spec, info, measured, rtt_ms, overhead)
    result["samples"]["traced_statements"] = len(info["roots"])
    result["detail"]["layer_missing"] = info["missing"]
    result["detail"]["self_time_table"] = _self_time_table(workload, info)
    result["detail"]["worst_tree_gap"] = max(
        (abs(total - root) / root for root, total in info["roots"].values() if root > 0),
        default=0.0,
    )
    return result


def _layer_metrics(spec: Spec, info: dict, measured: dict, rtt_ms, overhead: float) -> dict:
    statements = max(1, len(info["roots"]))
    self_s: Dict[str, float] = defaultdict(float)
    for per_name in info["per_statement"].values():
        for name, seconds in per_name.items():
            self_s[name] += seconds
    counts = defaultdict(int, info["counts"])
    samples = info["samples"]
    parallel = info["parallel"]

    def per_statement_ms(*names: str) -> dict:
        return _metric(sum(self_s[n] for n in names) / statements * 1e3, "ms")

    def share(hits: str, misses: str) -> dict:
        total = counts[hits] + counts[misses]
        return _metric(counts[hits] / total if total else 0.0, "ratio")

    def ratio(numerator: float, denominator: float, unit: str = "ratio") -> dict:
        return _metric(numerator / denominator if denominator else 0.0, unit)

    total = sum(self_s.values()) or 1.0
    by_layer: Dict[str, float] = defaultdict(float)
    for name, seconds in self_s.items():
        by_layer[layer_of(name)] += seconds
    qerrors = samples.get("qerror", [])
    selects = counts["selects"]
    return {
        "sql.parse_ms": per_statement_ms("sql.parse"),
        "sql.qgm_ms": per_statement_ms("sql.qgm"),
        "jits.analysis_ms": per_statement_ms("jits.analysis"),
        "jits.sensitivity_ms": per_statement_ms("jits.sensitivity"),
        "jits.collect_ms": per_statement_ms("jits.collect"),
        "jits.tick_ms": per_statement_ms("jits.tick"),
        "jits.collected_share": ratio(counts["collected"], selects),
        "jits.groups_per_stmt": ratio(counts["groups"], selects, "count"),
        "jits.sample_cache_hit_share": share("sample_hits", "sample_misses"),
        "jits.mask_cache_hit_share": share("mask_hits", "mask_misses"),
        "optimizer.optimize_ms": per_statement_ms("optimizer.optimize"),
        "optimizer.plan_cost_kunits": _metric(sum(samples.get("plan_cost", [])) / 1e3, "kunits"),
        "optimizer.qerror_p50": _metric(_percentile(qerrors, 50), "ratio"),
        "optimizer.qerror_p95": _metric(_percentile(qerrors, 95), "ratio"),
        "engine.plan_cache_hit_share": ratio(counts["plan_cache_hits"], selects),
        "engine.lock_wait_ms": per_statement_ms("engine.lock_wait"),
        "engine.fetch_ms": per_statement_ms("engine.fetch"),
        "engine.other_ms": per_statement_ms("engine.statement"),
        "executor.execute_ms": per_statement_ms("executor.execute"),
        "executor.rows_examined_per_returned": ratio(
            counts["rows_examined"], counts["rows_returned"]),
        "executor.parallel.dispatch_ms": per_statement_ms(
            "executor.parallel.dispatch", "executor.parallel.fragment"),
        "executor.parallel.shards_per_stmt": ratio(counts["shards"], statements, "count"),
        "executor.parallel.lowered_share": ratio(
            counts["fragments_lowered"], counts["fragments_attempted"]),
        "executor.parallel.fallbacks": _metric(parallel.get("fallbacks", 0), "count"),
        # CPU the pool's processes used, over what two workers could have
        # used while a dispatch was waiting for them.
        "executor.parallel.worker_busy_share": ratio(
            measured["children_cpu_s"], spec.scan_workers * _dispatch_wall(info, measured)),
        "storage.publish_ms": per_statement_ms("storage.publish"),
        "storage.chunks_copied_share": ratio(counts["chunks_copied"], counts["chunks_total"]),
        "storage.shm_export_ms": per_statement_ms("storage.shm_export"),
        "storage.shm_exports_per_stmt": ratio(
            info["calls"].get("storage.shm_export", 0), statements, "count"),
        "storage.sample_ms": per_statement_ms("storage.sample"),
        "server.encode_ms": per_statement_ms("server.encode"),
        "server.bytes_per_row": ratio(counts["wire_bytes"], counts["streamed_rows"], "B"),
        "server.frames_per_result": ratio(counts["frames"], counts["streamed_results"], "count"),
        "client.decode_ms": per_statement_ms("client.decode"),
        "wire.rtt_ms": _metric(statistics.fmean(rtt_ms) if rtt_ms else 0.0, "ms"),
        "share.compile_pct": _metric(
            (by_layer["sql"] + by_layer["jits"] + by_layer["optimizer"]) / total * 100, "%"),
        "share.executor_pct": _metric(by_layer["executor"] / total * 100, "%"),
        "share.parallel_pct": _metric(
            (by_layer["executor.parallel"] + self_s["storage.shm_export"]) / total * 100, "%"),
        "share.wire_pct": _metric(
            (by_layer["server"] + by_layer["client"] + by_layer["wire"]) / total * 100, "%"),
        "trace_overhead_pct": _metric(overhead, "%"),
        "layer_missing": _metric(len(info["missing"]), "count"),
    }


def _dispatch_wall(info: dict, measured: dict) -> float:
    """Seconds of the whole measured window during which a dispatch was
    open, extrapolated from the traced half of it."""
    traced_s = sum(root for root, _ in info["roots"].values())
    dispatch_s = sum(
        per_name.get("executor.parallel.dispatch", 0.0)
        for per_name in info["per_statement"].values()
    )
    if traced_s <= 0.0:
        return 0.0
    return dispatch_s / traced_s * measured["wall_s"]


def _self_time_table(workload, info: dict) -> dict:
    """Self seconds per span name: overall, and split by statement tag (on
    compile_bound the predicate count, the ROADMAP's compile-time budget)."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    statements: Dict[str, int] = defaultdict(int)
    for statement_id, per_name in info["per_statement"].items():
        stream = workload.streams[statement_id // 10_000_000]
        tag = stream[(statement_id % 10_000_000) % len(stream)].tag or "-"
        statements[tag] += 1
        statements["all"] += 1
        for name, seconds in per_name.items():
            table[tag][name] += seconds
            table["all"][name] += seconds
    return {
        tag: {
            "statements": statements[tag],
            "ms_per_statement": {
                name: seconds / statements[tag] * 1e3
                for name, seconds in sorted(names.items())
            },
        }
        for tag, names in sorted(table.items())
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _contract_view(result: dict) -> dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def _report(name: str, result: dict, trace: bool) -> None:
    detail, samples = result["detail"], result["samples"]
    print(
        f"[{name}] {'traced' if trace else 'untraced'}: attempted={result['attempted']} "
        f"failed={result['failed']} samples: select={samples['select']} "
        f"write={samples['write']} wall={detail['measured_wall_s']:.2f}s "
        f"setups={[round(s, 2) for s in detail['setups_s']]} "
        f"oracle={detail['oracle_s']:.2f}s build={detail['data_build_s']:.2f}s"
    )
    for failure in detail["failures"]:
        print(f"[{name}] FAILED {failure}")
    if samples["select"] < 200 and not trace:
        print(f"[{name}] note: {samples['select']} SELECTs, fewer than the 200 "
              "that put 10 samples beyond p95")
    for key, metric in result["metrics"].items():
        print(f"[{name}]   {key} = {metric['value']:.6g} {metric['unit']}")


def _provenance() -> dict:
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain")),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, short runs, one set-up: a functional check")
    parser.add_argument("--record", action="store_true",
                        help=f"append the results to {HISTORY.relative_to(ROOT)}")
    parser.add_argument("--out", type=Path,
                        help="append the suite's JSON object, one line, to this file "
                             "(the input of compare.py)")
    parser.add_argument("--regen-golden", action="store_true",
                        help="run the oracle and rewrite bench/golden/ for this seed")
    args = parser.parse_args(argv)
    contract_form = args.seconds is not None and args.workload is not None
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else float(CONTRACT["run_seconds"])
    )

    adopt_orphans()
    suite: Dict[str, dict] = {}
    try:
        for name in [args.workload] if args.workload else list(SPECS):
            passes = [bool(args.trace)] if contract_form else (
                [False, True] if args.trace else [False]
            )
            for trace in passes:
                result = run_workload(
                    SPECS[name], args.seed, seconds, trace, args.smoke,
                    regen_golden=args.regen_golden and not trace,
                )
                _report(name, result, trace)
                if name in suite:  # the traced pass: add its metrics
                    suite[name]["metrics"].update(result["metrics"])
                    suite[name]["samples"]["traced_statements"] = (
                        result["samples"]["traced_statements"])
                    suite[name]["detail"]["traced"] = result["detail"]
                    for key in ("attempted", "failed"):
                        suite[name][key] += result[key]
                    suite[name]["correct"] &= result["correct"]
                else:
                    suite[name] = result
    finally:
        reap_orphans()

    document = {"meta": {**_provenance(), "seed": args.seed, "seconds": seconds,
                         "smoke": args.smoke},
                "workloads": suite}
    for path in ([args.out] if args.out else []) + ([HISTORY] if args.record else []):
        path.parent.mkdir(exist_ok=True)
        with path.open("a") as log:  # appended, never overwritten
            log.write(json.dumps(document, separators=(",", ":")) + "\n")
    if contract_form:
        print(json.dumps(_contract_view(suite[args.workload])))
    else:
        print(json.dumps({
            "meta": document["meta"],
            "workloads": {name: _contract_view(result) for name, result in suite.items()},
        }))
    # The contract form reports failures in its JSON; the suite form is also
    # a check, so it fails when any answer was wrong.
    return 0 if contract_form or all(r["correct"] for r in suite.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
