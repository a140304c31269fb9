"""Regenerates the paper's Table II (experiment id: table2).

Prints the full table (all 28 benchmarks, both area budgets) and checks the
shape claims of §IV-B:

* Cayman outperforms NOVIA and QsCores on every benchmark at both budgets;
* average speedup ratios grow with the larger budget;
* decoupled + scratchpad interfaces dominate coupled ones on average;
* accelerator merging saves significant area on average.

Run with ``pytest benchmarks/test_table2.py --benchmark-only -s``.
"""

import pytest

from repro.reporting import (
    LARGE_BUDGET,
    SMALL_BUDGET,
    averages,
    generate_table2,
    render_table2,
    row_from_record,
)
from repro.workloads import workload_names

_rows_cache = {}


def _full_table(engine):
    if "rows" not in _rows_cache:
        _rows_cache["rows"] = generate_table2(engine=engine)
    return _rows_cache["rows"]


def test_table2_full(benchmark, engine):
    rows = benchmark.pedantic(
        _full_table, args=(engine,), rounds=1, iterations=1
    )
    print()
    print(render_table2(rows))

    assert len(rows) == len(workload_names())

    # Claim 1: Cayman wins everywhere, at both budgets.
    for row in rows:
        assert row.small.speedup_over_novia > 1.0, row.benchmark
        assert row.small.speedup_over_qscores > 1.0, row.benchmark
        assert row.large.speedup_over_novia > 1.0, row.benchmark
        assert row.large.speedup_over_qscores > 1.0, row.benchmark

    avg = averages(rows)
    # Claim 2: the larger budget widens the advantage on average
    # (paper: 14.4->27.2 over NOVIA, 8.0->15.0 over QsCores).
    assert avg.large.speedup_over_novia >= avg.small.speedup_over_novia
    assert avg.large.speedup_over_qscores >= avg.small.speedup_over_qscores
    assert avg.small.speedup_over_novia > 3.0
    assert avg.small.speedup_over_qscores > 3.0

    # Claim 3: interface specialization is widely adopted — decoupled and
    # scratchpad interfaces outnumber coupled ones on average (paper: 83%
    # and 81% of accesses use the specialized interfaces).
    assert avg.small.decoupled + avg.small.scratchpad >= avg.small.coupled
    assert avg.large.decoupled + avg.large.scratchpad >= avg.large.coupled

    # Claim 4: merging saves meaningful area on average (paper: 36%/35%).
    assert avg.small.area_saving_pct > 5.0
    assert avg.large.area_saving_pct > 5.0


def test_table2_merging_extremes(benchmark, engine):
    """3mm (three identical matmuls) merges far better than doitgen (one
    hotspot), matching the paper's 74% vs 5% contrast."""

    def rows():
        return tuple(
            row_from_record(record)
            for record in engine.evaluate(["3mm", "doitgen"])
        )

    row_3mm, row_doitgen = benchmark.pedantic(rows, rounds=1, iterations=1)
    print(f"\n3mm merge saving:     {row_3mm.small.area_saving_pct:.1f}%")
    print(f"doitgen merge saving: {row_doitgen.small.area_saving_pct:.1f}%")
    assert row_3mm.small.area_saving_pct > row_doitgen.small.area_saving_pct


def test_table2_single_benchmark_runtime(benchmark):
    """Cayman's own runtime on one benchmark (paper reports 70.8s average
    on full-size inputs; scaled-down inputs run in around a second)."""
    from repro.framework import Cayman
    from repro.workloads import get_workload

    workload = get_workload("atax")

    def run():
        return Cayman().run(workload.source, name="atax")

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.runtime_seconds < 30.0
