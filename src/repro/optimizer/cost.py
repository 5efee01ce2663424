"""Cost model, calibrated against the engine's own executor.

One cost unit corresponds to roughly one microsecond of measured executor
time on the reference machine (see tests/optimizer/test_cost.py for the
ranking properties this buys). What matters for the reproduction is that
the model *ranks* plans the way the executor actually behaves:

* sequential scans and hash joins are vectorized and cheap per row;
* index nested-loop joins pay 2 units per probe, a modelled random-access
  charge (a probe of an on-disk index) rather than this executor's cost:
  its batched probe measures about 0.04 microseconds per key (5,000
  keys against a 429k-row column, 2-core Xeon VM). The charge keeps
  index nested loops to small outers;
* plain nested loops pay per *pair* and are catastrophic at scale.

A misestimated cardinality therefore translates into a genuinely slower
execution, which is the effect the paper measures.
"""

from __future__ import annotations

import math

from ..catalog import ROWS_PER_PAGE

# Per-row / per-probe costs (~microseconds).
SEQ_PAGE_COST = 0.1  # per 100-row page touched sequentially
CPU_TUPLE_COST = 0.01  # per row surfaced by an operator
CPU_OPERATOR_COST = 0.002  # per row per predicate evaluated vectorized
HASH_BUILD_COST = 0.012  # per build-side row
HASH_PROBE_COST = 0.018  # per probe-side row
INDEX_PROBE_COST = 2.0  # per index probe (modelled random access)
INDEX_FETCH_COST = 0.05  # per row fetched through an index
NLJ_PAIR_COST = 0.004  # per (outer, inner) pair examined
SORT_FACTOR = 0.003  # x rows x log2(rows)
AGG_ROW_COST = 0.08  # per input row grouped
MATERIALIZE_COST = 0.02  # per row materialized for a derived table
OPERATOR_OVERHEAD = 8.0  # fixed per-operator dispatch cost


def pages(rows: float) -> float:
    return max(1.0, rows / ROWS_PER_PAGE)


def seq_scan_cost(base_rows: float, n_predicates: int) -> float:
    return (
        OPERATOR_OVERHEAD
        + pages(base_rows) * SEQ_PAGE_COST
        + base_rows * (CPU_TUPLE_COST * 0.3 + n_predicates * CPU_OPERATOR_COST)
    )


def index_scan_cost(matching_rows: float, n_remaining_predicates: int) -> float:
    return (
        OPERATOR_OVERHEAD
        + INDEX_PROBE_COST
        + matching_rows
        * (
            INDEX_FETCH_COST
            + CPU_TUPLE_COST
            + n_remaining_predicates * CPU_OPERATOR_COST
        )
    )


def hash_join_cost(build_rows: float, probe_rows: float, out_rows: float) -> float:
    return (
        OPERATOR_OVERHEAD
        + build_rows * HASH_BUILD_COST
        + probe_rows * HASH_PROBE_COST
        + out_rows * CPU_TUPLE_COST
    )


def index_nl_join_cost(outer_rows: float, out_rows: float) -> float:
    return (
        OPERATOR_OVERHEAD
        + outer_rows * INDEX_PROBE_COST
        + out_rows * (INDEX_FETCH_COST + CPU_TUPLE_COST)
    )


def nested_loop_cost(outer_rows: float, inner_rows: float, out_rows: float) -> float:
    return (
        OPERATOR_OVERHEAD
        + outer_rows * inner_rows * NLJ_PAIR_COST
        + out_rows * CPU_TUPLE_COST
    )


def filter_cost(in_rows: float, n_predicates: int) -> float:
    return OPERATOR_OVERHEAD + in_rows * n_predicates * CPU_OPERATOR_COST * 5


def aggregate_cost(in_rows: float, out_groups: float) -> float:
    return OPERATOR_OVERHEAD + in_rows * AGG_ROW_COST + out_groups * CPU_TUPLE_COST


def sort_cost(rows: float) -> float:
    if rows <= 1:
        return OPERATOR_OVERHEAD
    return OPERATOR_OVERHEAD + rows * math.log2(rows) * SORT_FACTOR


def distinct_cost(rows: float) -> float:
    return OPERATOR_OVERHEAD + rows * AGG_ROW_COST


def materialize_cost(rows: float) -> float:
    return OPERATOR_OVERHEAD + rows * MATERIALIZE_COST
