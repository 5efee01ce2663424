#!/usr/bin/env python3
"""How steady is the benchmark? Runs the contract command on several seeds
and prints, per workload and end-to-end metric, the median and the distance
between the first and third quartile as a share of it: the same figure the
driver compares with each metric's bound. This is how the bounds in
``BENCHMARK.json`` were fixed (see README.md, "How the bounds were fixed").

    python3 bench/spread.py [--workload NAME ...] [--runs 10] [--first-seed 100]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import CONTRACT, spread as spread_of  # the script's own directory

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", type=Path, help="write every run's values here as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    names = args.workload or [w["name"] for w in CONTRACT["workloads"]]
    values: dict = {}
    worst = 0.0
    for name in names:
        values[name] = {}
        began = time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                CONTRACT["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(CONTRACT["run_seconds"]), "--trace", "0",
                ],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} statements failed")
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
        per_run = (time.perf_counter() - began) / args.runs
        print(f"{name}: {args.runs} runs, {per_run:.1f} s each")
        for metric, series in values[name].items():
            median = statistics.median(series)
            spread = spread_of(series)
            bound = bounds.get(metric, 0.0)
            third = "" if metric == "setup_s" or spread * 3 <= bound else "  > bound/3"
            if metric != "setup_s":
                worst = max(worst, spread / bound if bound else 0.0)
            print(f"  {metric:18s} median {median:12.4f}  spread {spread * 100:5.1f} %"
                  f"  bound {bound * 100:4.0f} %{third}")
    if args.out:
        args.out.write_text(json.dumps(values, indent=1) + "\n")
    print(f"largest spread is {worst * 100:.0f} % of its bound")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
