"""End-to-end check of the benchmark itself at smoke scale.

One suite run (``run.py --smoke --trace``: all five workloads, untraced and
traced, tiny data, under a minute) feeds every assertion below.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.layers import WRAP_POINTS, Tracer  # noqa: E402
from bench.workloads import SPECS  # noqa: E402


def shm_segments():
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith("rjits"))


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.jsonl"
    before = shm_segments()
    began = time.perf_counter()
    done = subprocess.run(
        RUN + ["--smoke", "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - began
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads(out.read_text())
    document["elapsed_s"] = elapsed
    document["stdout"] = done.stdout
    document["shm_leaked"] = sorted(set(shm_segments()) - set(before))
    return document


def test_contract_file_matches_the_code():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(SPECS)
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == SPECS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_smoke_suite_is_quick_and_correct(suite):
    assert suite["elapsed_s"] < 60
    assert list(suite["workloads"]) == list(SPECS)
    for name, result in suite["workloads"].items():
        assert result["correct"], (name, result["detail"]["failures"])
        assert result["failed"] == 0 and result["attempted"] > 0
    # The last line of stdout is the suite as one JSON object.
    last = json.loads(suite["stdout"].strip().splitlines()[-1])
    assert set(last["workloads"]) == set(SPECS)


def test_every_metric_is_reported_with_unit_and_sample_count(suite):
    for name, result in suite["workloads"].items():
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            reported = result["metrics"].get(metric["name"])
            assert reported is not None, (name, metric["name"])
            assert reported["unit"] == metric["unit"], (name, metric["name"])
            assert isinstance(reported["value"], (int, float))
        for metric in CONTRACT["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, (name, metric["name"])
        samples = result["samples"]
        assert samples["select"] > 0 and samples["write"] > 0
        assert samples["traced_statements"] > 0
        assert "trace_overhead_pct" in result["metrics"]


def test_every_wrap_point_resolves(suite):
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert len(tracer._installed) >= len(WRAP_POINTS)
    finally:
        tracer.uninstall()
    for result in suite["workloads"].values():
        assert result["metrics"]["layer_missing"]["value"] == 0
        assert result["detail"]["traced"]["layer_missing"] == []


def test_span_trees_account_for_their_root(suite):
    """Per statement, the self times of the tree sum to the root span."""
    for name, result in suite["workloads"].items():
        assert result["detail"]["traced"]["worst_tree_gap"] <= 0.05, name
        trace = ROOT / "bench" / "out" / f"trace-{name}.jsonl"
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        roots = {s["statement"] for s in spans if s["name"] == "statement"}
        owned = {s["statement"] for s in spans if s["statement"] >= 0}
        assert owned and owned <= roots, name


def test_workloads_exercise_what_they_claim(suite):
    metrics = {name: r["metrics"] for name, r in suite["workloads"].items()}
    assert metrics["compile_bound"]["jits.collected_share"]["value"] >= 0.3
    assert metrics["compile_bound"]["engine.plan_cache_hit_share"]["value"] > 0
    parallel = metrics["parallel_scan"]
    assert parallel["executor.parallel.fallbacks"]["value"] == 0
    assert parallel["executor.parallel.shards_per_stmt"]["value"] > 0
    assert parallel["executor.parallel.lowered_share"]["value"] > 0
    assert parallel["storage.shm_exports_per_stmt"]["value"] > 0
    wire = suite["workloads"]["wire_fetch"]
    assert wire["detail"]["streamed_results"] == wire["samples"]["select"]
    assert wire["metrics"]["server.encode_ms"]["value"] > 0
    assert wire["metrics"]["client.decode_ms"]["value"] > 0
    assert metrics["rw_concurrent"]["wire.rtt_ms"]["value"] > 0
    assert metrics["rw_concurrent"]["storage.publish_ms"]["value"] > 0
    for embedded in ("dss_mix", "compile_bound", "parallel_scan"):
        assert metrics[embedded]["share.wire_pct"]["value"] == 0


def test_no_shared_memory_left_behind(suite):
    assert suite["shm_leaked"] == []


def test_interrupt_leaves_no_shared_memory_and_no_result():
    before = shm_segments()
    process = subprocess.Popen(
        RUN + ["--workload", "parallel_scan", "--smoke", "--seconds", "20",
               "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    deadline = time.perf_counter() + 30
    while not (set(shm_segments()) - set(before)):  # the pool has exported
        assert process.poll() is None and time.perf_counter() < deadline
        time.sleep(0.1)
    os.killpg(process.pid, signal.SIGINT)
    stdout, _ = process.communicate(timeout=60)
    assert process.returncode != 0
    assert '"metrics"' not in stdout
    assert sorted(set(shm_segments()) - set(before)) == []


def test_exits_without_a_result_where_there_is_no_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ the command
    fails, quickly, and prints no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dss_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
