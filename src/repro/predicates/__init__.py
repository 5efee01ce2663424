"""Predicate model, region mapping and vectorized evaluation."""

from .evaluate import (
    count_matches,
    group_mask,
    predicate_mask,
    values_mask,
)
from .predicate import JoinPredicate, LocalPredicate, PredOp, PredicateGroup
from .regions import (
    group_region,
    physical_value,
    predicate_interval,
    region_for_columns,
)
from .residualkey import residual_key

__all__ = [
    "PredOp",
    "LocalPredicate",
    "JoinPredicate",
    "PredicateGroup",
    "predicate_mask",
    "group_mask",
    "values_mask",
    "count_matches",
    "predicate_interval",
    "group_region",
    "region_for_columns",
    "physical_value",
    "residual_key",
]
