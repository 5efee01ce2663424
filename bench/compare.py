#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py A.jsonl B.jsonl

Each file holds one suite result per line, as ``run.py --out FILE`` (or
``--record``) appends them; A is the base. For every workload and
end-to-end metric the table shows both medians, the ratio B/A, the metric's
bound from ``BENCHMARK.json`` and a verdict:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  it is not, but A's own runs spread wider than the bound
                  (first to third quartile over the median; the whole
                  range with fewer than four runs), so "no worse" cannot
                  be told from noise either;
* ``ok``          otherwise.

Exits 1 on any ``worse``, or when B failed a larger share of statements.
Two runs of one commit compared this way are the repeat-agreement check;
a parent and a change compared this way are the regression check.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def load(path: str) -> List[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def series(documents: List[dict], workload: str, metric: str) -> List[float]:
    return [
        doc["workloads"][workload]["metrics"][metric]["value"]
        for doc in documents
        if metric in doc["workloads"].get(workload, {}).get("metrics", {})
    ]


def spread(values: List[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def failed_share(documents: List[dict], workload: str) -> float:
    runs = [doc["workloads"][workload] for doc in documents if workload in doc["workloads"]]
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, other = load(argv[0]), load(argv[1])
    verdicts: Dict[str, int] = {"ok": 0, "worse": 0, "unresolved": 0}
    exit_code = 0
    print(f"{'workload':14s} {'metric':18s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
          f"{'bound':>6s} {'A spread':>9s}  verdict   (A: {len(base)} runs, B: {len(other)})")
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        for metric in CONTRACT["end_to_end"]:
            a, b = (series(docs, workload, metric["name"]) for docs in (base, other))
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            ratio = median_b / median_a
            worsening = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            noise = spread(a)
            if worsening > metric["bound"]:
                verdict = "worse"
            elif noise > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            verdicts[verdict] += 1
            print(f"{workload:14s} {metric['name']:18s} {median_a:12.4f} {median_b:12.4f} "
                  f"{ratio:7.3f} {metric['bound'] * 100:5.0f}% {noise * 100:8.1f}%  {verdict}")
        share_a, share_b = failed_share(base, workload), failed_share(other, workload)
        if share_a or share_b:
            print(f"{workload:14s} {'failed_share':18s} {share_a:12.6f} {share_b:12.6f}")
        if share_b > share_a:
            exit_code = 1
    print(", ".join(f"{count} {verdict}" for verdict, count in verdicts.items()))
    return 1 if verdicts["worse"] else exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
