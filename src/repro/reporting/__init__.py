"""Regeneration of the paper's evaluation artifacts (Tables I/II, Fig. 6)."""

from .bench import (
    BenchCache,
    EvaluationEngine,
    FlowParams,
    WorkloadRecord,
    build_report,
    compare_reports,
    load_report,
    write_report,
)
from .formats import render_series, render_table
from .table1 import capability_matrix, render_table1
from .table2 import (
    LARGE_BUDGET,
    SMALL_BUDGET,
    Table2Row,
    averages,
    generate_table2,
    render_table2,
    row_from_record,
)
from .export import (
    figure6_to_csv,
    figure6_to_json,
    table2_to_csv,
    table2_to_json,
)
from .figure6 import (
    DEFAULT_FIG6_BENCHMARKS,
    Figure6Series,
    dominance_check,
    generate_figure6,
    render_figure6,
    series_from_record,
)

__all__ = [
    "render_series", "render_table",
    "BenchCache", "EvaluationEngine", "FlowParams", "WorkloadRecord",
    "build_report", "compare_reports", "load_report", "write_report",
    "capability_matrix", "render_table1",
    "LARGE_BUDGET", "SMALL_BUDGET", "Table2Row", "averages",
    "generate_table2", "render_table2", "row_from_record",
    "DEFAULT_FIG6_BENCHMARKS", "Figure6Series",
    "dominance_check", "generate_figure6", "render_figure6",
    "series_from_record",
    "figure6_to_csv", "figure6_to_json", "table2_to_csv", "table2_to_json",
]
