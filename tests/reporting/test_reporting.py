"""Tests for the Table I/II and Fig. 6 regeneration machinery."""

import pytest

from repro.reporting import (
    EvaluationEngine,
    averages,
    capability_matrix,
    dominance_check,
    generate_table2,
    render_figure6,
    render_table,
    render_table1,
    render_table2,
    row_from_record,
    series_from_record,
)


@pytest.fixture(scope="module")
def engine():
    return EvaluationEngine()


@pytest.fixture(scope="module")
def atax_record(engine):
    return engine.evaluate(["atax"])[0]


class TestTable1:
    def test_rows(self):
        rows = capability_matrix()
        by_method = {r.method: r for r in rows}
        assert by_method["Cayman"].candidate_selection == "auto"
        assert by_method["Cayman"].control_flow == "optimized"
        assert by_method["Cayman"].data_access == "specialized"
        assert by_method["Cayman"].hardware_sharing == "flexible"
        assert by_method["CFU (NOVIA)"].data_access == "scalar-only"
        assert by_method["OCA (QsCores)"].control_flow == "sequential"
        assert by_method["OCA (QsCores)"].data_access == "slow"
        assert by_method["HLS"].candidate_selection == "manual"

    def test_render(self):
        text = render_table1()
        assert "Cayman" in text and "specialized" in text


class TestEngine:
    def test_caches(self, engine, atax_record):
        misses = engine.misses
        assert engine.evaluate(["atax"])[0] is atax_record
        assert engine.misses == misses

    def test_all_flows_present(self, atax_record):
        assert set(atax_record.flows) == {
            "cayman", "coupled_only", "novia", "qscores"
        }
        assert (atax_record.speedup("cayman", 0.25)
                >= atax_record.speedup("coupled_only", 0.25))


class TestTable2:
    def test_row_shape(self, atax_record):
        row = row_from_record(atax_record)
        assert row.benchmark == "atax"
        assert row.small.speedup_over_novia > 1
        assert row.small.speedup_over_qscores > 1
        # Larger budget cannot reduce Cayman's own speedup.
        assert row.large.cayman_speedup >= row.small.cayman_speedup - 1e-9
        assert row.small.seq_blocks >= 0
        assert row.small.pipelined_regions >= 1

    def test_interface_columns_consistent(self, atax_record):
        from repro.framework import Cayman
        from repro.workloads import get_workload

        row = row_from_record(atax_record)
        workload = get_workload("atax")
        result = Cayman().run(
            workload.source, entry=workload.entry, name="atax"
        )
        totals = result.best_under_budget(0.25).solution.interface_totals()
        assert row.small.coupled == totals["coupled"]
        assert row.small.decoupled == totals["decoupled"]
        assert row.small.scratchpad == totals["scratchpad"]

    def test_generate_subset_and_average(self, engine):
        rows = generate_table2(["atax", "trisolv"], engine=engine)
        assert len(rows) == 2
        avg = averages(rows)
        assert avg.benchmark == "average"
        expected = (
            rows[0].small.speedup_over_novia + rows[1].small.speedup_over_novia
        ) / 2
        assert avg.small.speedup_over_novia == pytest.approx(expected)

    def test_render(self, engine):
        rows = generate_table2(["atax"], engine=engine)
        text = render_table2(rows)
        assert "over-NOVIA" in text
        assert "atax" in text
        assert "average" in text


class TestFigure6:
    def test_series_and_dominance(self, atax_record):
        series = series_from_record(atax_record)
        checks = dominance_check(series)
        assert checks["cayman_beats_novia"]
        assert checks["cayman_beats_qscores"]
        assert checks["cayman_beats_coupled_only"]
        assert checks["novia_low_area"]

    def test_series_sorted_by_area(self, atax_record):
        series = series_from_record(atax_record)
        for points in series.as_dict().values():
            areas = [a for a, _ in points]
            assert areas == sorted(areas)

    def test_render(self, atax_record):
        text = render_figure6([series_from_record(atax_record)])
        assert "== atax ==" in text
        assert "cayman:" in text and "novia:" in text


class TestFormats:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["xxx", 100.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "xxx" in lines[3]

    def test_float_formatting(self):
        text = render_table(["v"], [[123.456], [1.234], [0.0]])
        assert "123" in text and "1.2" in text and "0" in text


class TestExport:
    def test_table2_csv_and_json(self, engine):
        import csv as csv_mod
        import io
        import json

        from repro.reporting import table2_to_csv, table2_to_json

        rows = generate_table2(["trisolv"], engine=engine)
        csv_text = table2_to_csv(rows)
        parsed = list(csv_mod.DictReader(io.StringIO(csv_text)))
        assert len(parsed) == 1
        assert parsed[0]["benchmark"] == "trisolv"
        assert float(parsed[0]["small_over_novia"]) > 1.0

        payload = json.loads(table2_to_json(rows))
        assert payload[0]["benchmark"] == "trisolv"
        assert payload[0]["small_sb"] == rows[0].small.seq_blocks

    def test_figure6_exports(self, atax_record):
        import csv as csv_mod
        import io
        import json

        from repro.reporting import figure6_to_csv, figure6_to_json

        series = [series_from_record(atax_record)]
        payload = json.loads(figure6_to_json(series))
        assert set(payload["atax"]) == {
            "novia", "qscores", "coupled_only", "cayman"
        }
        csv_rows = list(csv_mod.reader(io.StringIO(figure6_to_csv(series))))
        assert csv_rows[0] == ["benchmark", "flow", "area_ratio", "speedup"]
        total_points = sum(
            len(points) for points in series_from_record(atax_record).as_dict().values()
        )
        assert len(csv_rows) - 1 == total_points
