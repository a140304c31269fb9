"""Metric names, units and directions; ``BENCHMARK.json`` lists the same.

End-to-end metrics are measured with tracing off; per-layer metrics come
from a separate traced run.  Layer names are the ``repro`` subpackages.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen before
    #: a change counts as a regression (end-to-end metrics only).
    bound: Optional[float] = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.15),
    Metric("program_s.p50", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
    Metric("speedup_b25.geomean", "x", "higher", 0.01),
    Metric("speedup_b65.geomean", "x", "higher", 0.01),
    Metric("merged_area_pct.mean", "%", "lower", 0.01),
)

#: Span names whose total self time is reported as ``<name>.self_s``.
SELF_TIMED = (
    "merging.merge", "merging.match_units",
    "model.candidates", "model.estimate", "model.context",
    "hls.pipeline_loop", "hls.schedule_dfg",
    "selection.run",
    "analysis.wpst", "analysis.banking_probe", "analysis.reuse_probe",
    "dataflow.intervals", "dataflow.bitwidth", "dataflow.pointsto",
    "dataflow.bounds",
    "interp.profile_module", "interp.sanitize",
    "diagnostics.run_lint",
    "frontend.compile_source", "opt.optimize_module",
)

#: Span names whose call count is reported as ``<name>.calls``.
CALL_COUNTED = (
    "merging.merge", "merging.estimate_pair_saving", "merging.match_units",
    "model.candidates", "model.estimate",
    "hls.pipeline_loop", "hls.schedule_dfg",
)

#: ``repro.telemetry`` counters reported under their own names.
COUNTERS = (
    "merging.pairs_evaluated", "merging.steps",
    "model.configs_generated",
    "selection.vertices_pruned", "selection.rejected_configs",
    "dependence.vector.pairs_tested", "dependence.vector.pairs_decided",
    "dependence.tier.vector", "dependence.tier.windowed",
    "dependence.tier.stride", "dependence.tier.lockstep",
    "dependence.tier.conservative", "dependence.tier.alias",
    "dependence.tier.base_disjoint", "dependence.tier.unknown_base",
    "reuse.pairs_proven",
    "dataflow.worklist_iterations",
    "interp.instructions",
)

#: Layers whose summed self time is reported as ``share.<layer>_pct``.
LAYERS = (
    "merging", "model", "hls", "selection", "analysis", "dataflow",
    "interp", "diagnostics", "frontend", "opt",
)

_LOWER_IS_BETTER_COUNTERS = {
    "merging.pairs_evaluated", "selection.rejected_configs",
    "dependence.vector.pairs_tested", "dependence.tier.windowed",
    "dependence.tier.stride", "dependence.tier.lockstep",
    "dependence.tier.conservative", "dependence.tier.alias",
    "dependence.tier.unknown_base", "dataflow.worklist_iterations",
    "interp.instructions",
}


def _per_layer() -> tuple:
    specs: List[Metric] = []
    specs += [Metric(f"{name}.self_s", "s", "lower") for name in SELF_TIMED]
    specs += [Metric(f"{name}.calls", "count", "lower")
              for name in CALL_COUNTED]
    specs += [
        Metric(name, "count",
               "lower" if name in _LOWER_IS_BETTER_COUNTERS else "higher")
        for name in COUNTERS
    ]
    specs += [
        Metric("merging.match_units.repeat_ratio", "ratio", "lower"),
        Metric("merging.step_yield", "ratio", "higher"),
        Metric("model.dedup_ratio", "ratio", "lower"),
        Metric("selection.front_len", "count", "higher"),
        Metric("merge_saving_pct.mean", "%", "higher"),
        Metric("diagnostics.findings", "count", "lower"),
        Metric("interp.inst_per_s", "1/s", "higher"),
        Metric("trace.wall_s", "s", "lower"),
        Metric("trace.overhead_pct", "%", "lower"),
        Metric("trace.coverage_pct", "%", "higher"),
    ]
    specs += [Metric(f"share.{layer}_pct", "%", "lower") for layer in LAYERS]
    return tuple(specs)


PER_LAYER = _per_layer()


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0


def as_result(values: Dict[str, float], specs) -> Dict[str, Dict]:
    """The ``metrics`` object of the result line, in spec order."""
    return {
        spec.name: {"value": values[spec.name], "unit": spec.unit}
        for spec in specs
    }


def benchmark_entries() -> Dict[str, List[Dict]]:
    """The ``end_to_end`` and ``per_layer`` lists of ``BENCHMARK.json``."""
    return {
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
