"""End-to-end telemetry over the Cayman pipeline: structure, determinism,
stage accounting."""

import pytest

from repro.framework import PIPELINE_STAGES, Cayman
from repro.telemetry import NULL_TELEMETRY, Telemetry, current

from ..conftest import FIG2_SOURCE


@pytest.fixture(scope="module")
def traced_run():
    tele = Telemetry()
    result = Cayman(lint=True, telemetry=tele).run(FIG2_SOURCE, name="fig2")
    return tele, result


class TestPipelineSpans:
    def test_root_is_cayman_run(self, traced_run):
        tele, _ = traced_run
        assert [root.name for root in tele.roots] == ["cayman.run"]
        root = tele.roots[0]
        assert root.attrs["workload"] == "fig2"
        assert root.attrs["front_size"] > 0

    def test_every_stage_has_a_span(self, traced_run):
        tele, _ = traced_run
        stage_names = [c.name for c in tele.roots[0].children]
        assert stage_names == [f"stage:{s}" for s in PIPELINE_STAGES]

    def test_span_depth_reaches_four_levels(self, traced_run):
        tele, _ = traced_run
        # cayman.run -> stage:compile -> opt.pipeline -> opt.pass:<name>
        assert max(span.depth for span in tele.walk_spans()) >= 3
        names = {span.name for span in tele.walk_spans() if span.depth == 3}
        assert any(name.startswith("opt.pass:") for name in names)

    def test_verification_has_its_own_span(self, traced_run):
        tele, result = traced_run
        spans = [s for s in tele.walk_spans() if s.name == "ir.verify"]
        functions = len(list(result.module.defined_functions()))
        # Once after lowering, then once per pass that changed the module.
        assert spans[0].parent.name == "frontend.lower"
        assert all(s.parent.name == "opt.pipeline" for s in spans[1:])
        assert len(spans) > 1
        assert {s.attrs["functions"] for s in spans} == {functions}

    def test_interp_compile_nested_under_profile(self, traced_run):
        tele, _ = traced_run
        spans = {span.name: span for span in tele.walk_spans()}
        compile_span = spans["interp.compile"]
        assert compile_span.parent.name == "interp.run"
        assert compile_span.parent.parent.name == "stage:profile"

    def test_layer_counters_present(self, traced_run):
        tele, _ = traced_run
        counters = tele.snapshot()["counters"]
        assert counters["frontend.compiles"] == 1
        assert counters["dataflow.solves"] > 0
        assert counters["dataflow.worklist_iterations"] > 0
        assert any(k.startswith("dependence.tier.") for k in counters)
        assert counters["model.configs_generated"] > 0
        assert counters["model.candidates"] > 0
        assert counters["model.units_built"] > 0
        assert counters["selection.vertices_evaluated"] > 0
        assert counters["merging.solutions"] > 0
        assert "merging.pairs_bounded" in counters
        assert counters["interp.instructions"] > 0
        assert counters["interp.runs"] >= 1

    def test_interp_timings_recorded(self, traced_run):
        tele, _ = traced_run
        timings = tele.snapshot()["timings"]
        assert timings["interp.compile_seconds"]["count"] >= 1
        assert timings["interp.exec_seconds"]["count"] >= 1


class TestDeterminism:
    def test_two_runs_identical_tree_and_counters(self):
        def run():
            tele = Telemetry()
            Cayman(lint=True, telemetry=tele).run(FIG2_SOURCE, name="fig2")
            return tele

        a, b = run(), run()
        assert a.span_tree(include_timing=False) == \
            b.span_tree(include_timing=False)
        assert a.snapshot()["counters"] == b.snapshot()["counters"]

    def test_run_restores_ambient_context(self):
        assert current() is NULL_TELEMETRY
        Cayman().run(FIG2_SOURCE, name="fig2")
        assert current() is NULL_TELEMETRY

    def test_unit_counters_repeat_and_cover_every_unit(self, monkeypatch):
        """``model.units_built`` + ``model.units_reused`` is the number of
        synthesized units the estimates report, and both repeat exactly."""
        from repro.model.estimator import AcceleratorModel
        from repro.workloads.registry import get_workload

        reported = []
        estimate = AcceleratorModel.estimate

        def counting_estimate(model, config, ctx):
            result = estimate(model, config, ctx)
            reported.append(0 if result is None else len(result.units))
            return result

        monkeypatch.setattr(AcceleratorModel, "estimate", counting_estimate)
        workload = get_workload("atax")

        def run():
            reported.clear()
            tele = Telemetry()
            Cayman(telemetry=tele).run(workload.source, name=workload.name)
            counters = tele.snapshot()["counters"]
            built = counters["model.units_built"]
            reused = counters["model.units_reused"]
            assert built + reused == sum(reported)
            return built, reused

        first = run()
        assert first == run()
        assert min(first) > 0

    def test_ambient_context_is_picked_up(self):
        from repro.telemetry import use

        tele = Telemetry()
        with use(tele):
            Cayman().run(FIG2_SOURCE, name="fig2")
        assert [root.name for root in tele.roots] == ["cayman.run"]
        assert tele.snapshot()["counters"]["interp.instructions"] > 0


class TestStageAccounting:
    def test_stage_seconds_cover_all_stages(self, traced_run):
        _, result = traced_run
        for stage in PIPELINE_STAGES:
            assert result.stage_seconds[stage] >= 0.0

    def test_lint_stage_only_with_lint(self):
        result = Cayman(lint=False).run(FIG2_SOURCE, name="fig2")
        assert "lint" not in result.stage_seconds
        for stage in ("compile", "profile", "analysis", "selection",
                      "merging"):
            assert stage in result.stage_seconds

    def test_stages_sum_close_to_runtime(self, traced_run):
        _, result = traced_run
        accounted = sum(result.stage_seconds.values())
        assert accounted <= result.runtime_seconds + 1e-9
        slack = result.runtime_seconds - accounted
        assert slack <= max(0.05, 0.1 * result.runtime_seconds)

    def test_result_carries_telemetry(self, traced_run):
        tele, result = traced_run
        assert result.telemetry is tele


class TestSpanAttributes:
    def test_merging_float_attributes_are_rounded(self):
        """Float noise (``1001.7999999999993`` on atax) would make traces of
        equal runs diff; merging rounds its float span attributes."""
        from repro.merging.merge_driver import SPAN_DIGITS
        from repro.workloads.registry import get_workload

        workload = get_workload("atax")
        tele = Telemetry()
        Cayman(telemetry=tele).run(workload.source, name=workload.name)
        floats = [
            value
            for span in tele.walk_spans() if span.name.startswith("merging.")
            for value in span.attrs.values() if isinstance(value, float)
        ]
        assert any(floats)
        for value in floats:
            assert value == round(value, SPAN_DIGITS)
            assert len(repr(value).partition(".")[2]) <= SPAN_DIGITS
