"""Vectorized plan execution and runtime feedback."""

from .aggregate import aggregate_batch, collect_aggregates
from .executor import ExecutionResult, PlanExecutor, ScanObservation
from .expr import eval_bool, eval_expr
from .feedback import FeedbackRecord, collect_feedback
from .joinutil import equi_join_indices
from .reference import run_reference
from .vector import Batch, ColumnVector, batch_from_table, translate_codes

__all__ = [
    "PlanExecutor",
    "ExecutionResult",
    "ScanObservation",
    "Batch",
    "ColumnVector",
    "batch_from_table",
    "translate_codes",
    "eval_expr",
    "eval_bool",
    "equi_join_indices",
    "aggregate_batch",
    "collect_aggregates",
    "FeedbackRecord",
    "collect_feedback",
    "run_reference",
]
