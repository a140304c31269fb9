"""Accelerator merging: reconfigurable datapath units and reusable
accelerators (paper §III-E)."""

from .opmatch import MatchResult, match_units, op_index
from .dfg_merge import MergedUnit, estimate_pair_saving, merge_pair
from .merge_driver import (
    AcceleratorMerger,
    MergedSolution,
    ReusableAccelerator,
    merge_solution,
)

__all__ = [
    "MatchResult", "match_units", "op_index",
    "MergedUnit", "estimate_pair_saving", "merge_pair",
    "AcceleratorMerger", "MergedSolution", "ReusableAccelerator",
    "merge_solution",
]
