"""Table II regeneration: per-benchmark speedups over NOVIA and QsCores,
selected-kernel configuration counts, interface counts, merging area savings,
and Cayman runtime, under the small (25%) and large (65%) area budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..workloads import all_workloads
from .bench import EvaluationEngine, WorkloadRecord, _budget_key
from .formats import render_table

SMALL_BUDGET = 0.25
LARGE_BUDGET = 0.65


@dataclass
class BudgetRow:
    """One benchmark's numbers under one area budget."""

    speedup_over_novia: float
    speedup_over_qscores: float
    seq_blocks: int
    pipelined_regions: int
    coupled: int
    decoupled: int
    scratchpad: int
    area_saving_pct: float
    cayman_speedup: float


@dataclass
class Table2Row:
    suite: str
    benchmark: str
    small: BudgetRow
    large: BudgetRow
    runtime_seconds: float


def _metrics_to_budget_row(metrics: dict) -> BudgetRow:
    return BudgetRow(
        speedup_over_novia=metrics["over_novia"],
        speedup_over_qscores=metrics["over_qscores"],
        seq_blocks=metrics["seq_blocks"],
        pipelined_regions=metrics["pipelined_regions"],
        coupled=metrics["coupled"],
        decoupled=metrics["decoupled"],
        scratchpad=metrics["scratchpad"],
        area_saving_pct=metrics["saving_pct"],
        cayman_speedup=metrics["cayman_speedup"],
    )


def row_from_record(record: WorkloadRecord) -> Table2Row:
    """Table II row from a (possibly cache-loaded) bench record.

    The record must have been evaluated with the paper's budgets among its
    ``FlowParams.budgets``; ``runtime_seconds`` then reflects the original
    (cached) run, not the current process.
    """
    return Table2Row(
        suite=record.suite,
        benchmark=record.name,
        small=_metrics_to_budget_row(record.table2[_budget_key(SMALL_BUDGET)]),
        large=_metrics_to_budget_row(record.table2[_budget_key(LARGE_BUDGET)]),
        runtime_seconds=record.runtime_seconds,
    )


def generate_table2(
    benchmarks: Optional[Sequence[str]] = None,
    engine: Optional[EvaluationEngine] = None,
    progress=None,
    jobs: int = 1,
) -> List[Table2Row]:
    """Table II rows of ``benchmarks`` (default: every workload), built
    from ``engine``'s records.  ``progress`` and ``jobs`` are passed on to
    :meth:`~.bench.EvaluationEngine.evaluate`."""
    engine = engine or EvaluationEngine()
    names = list(benchmarks) if benchmarks else [w.name for w in all_workloads()]
    records = engine.evaluate(names, jobs=jobs, progress=progress)
    return [row_from_record(record) for record in records]


def averages(rows: Sequence[Table2Row]) -> Table2Row:
    """The paper's "average" row (arithmetic means, as in Table II)."""

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def avg_budget(select) -> BudgetRow:
        return BudgetRow(
            speedup_over_novia=mean(select(r).speedup_over_novia for r in rows),
            speedup_over_qscores=mean(select(r).speedup_over_qscores for r in rows),
            seq_blocks=round(mean(select(r).seq_blocks for r in rows)),
            pipelined_regions=round(mean(select(r).pipelined_regions for r in rows)),
            coupled=round(mean(select(r).coupled for r in rows)),
            decoupled=round(mean(select(r).decoupled for r in rows)),
            scratchpad=round(mean(select(r).scratchpad for r in rows)),
            area_saving_pct=mean(select(r).area_saving_pct for r in rows),
            cayman_speedup=mean(select(r).cayman_speedup for r in rows),
        )

    return Table2Row(
        suite="",
        benchmark="average",
        small=avg_budget(lambda r: r.small),
        large=avg_budget(lambda r: r.large),
        runtime_seconds=mean(r.runtime_seconds for r in rows),
    )


def render_table2(rows: Sequence[Table2Row], include_average: bool = True) -> str:
    """Text rendering matching the paper's Table II columns."""
    headers = [
        "suite", "benchmark",
        "S:over-NOVIA", "S:over-QsCores", "S:#SB", "S:#PR",
        "S:#C", "S:#D", "S:#S", "S:save%",
        "L:over-NOVIA", "L:over-QsCores", "L:#SB", "L:#PR",
        "L:#C", "L:#D", "L:#S", "L:save%",
        "runtime(s)",
    ]
    all_rows = list(rows)
    if include_average and all_rows:
        all_rows.append(averages(rows))
    body = []
    for row in all_rows:
        body.append([
            row.suite, row.benchmark,
            row.small.speedup_over_novia, row.small.speedup_over_qscores,
            row.small.seq_blocks, row.small.pipelined_regions,
            row.small.coupled, row.small.decoupled, row.small.scratchpad,
            row.small.area_saving_pct,
            row.large.speedup_over_novia, row.large.speedup_over_qscores,
            row.large.seq_blocks, row.large.pipelined_regions,
            row.large.coupled, row.large.decoupled, row.large.scratchpad,
            row.large.area_saving_pct,
            row.runtime_seconds,
        ])
    return render_table(headers, body)
