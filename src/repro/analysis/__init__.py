"""Analytical tooling: the Section IV-C cost model."""

from .cost_model import (
    CalibratedCostModel,
    CostModel,
    WorkloadParams,
    merge_input_class,
    merge_units,
    search_time_lower,
    search_time_upper,
)

__all__ = [
    "CostModel",
    "CalibratedCostModel",
    "WorkloadParams",
    "merge_input_class",
    "merge_units",
    "search_time_lower",
    "search_time_upper",
]
