"""Tests for the region profiler (counts, durations, trip counts)."""

import pytest

from repro.frontend import compile_source
from repro.analysis import WPST, LoopInfo
from repro.interp import profile_module


class TestBlockCounters:
    def test_block_counts(self):
        module = compile_source(
            "int main() { int s = 0; loop: for (int i = 0; i < 10; i++) s += i; return s; }",
            optimize=False,
        )
        profile = profile_module(module)
        func = module.get_function("main")
        body = func.block_by_name("loop.body")
        header = func.block_by_name("loop.header")
        assert profile.block_count(body) == 10
        assert profile.block_count(header) == 11  # 10 iterations + exit check

    def test_edge_counts(self):
        module = compile_source(
            "int main() { int s = 0; loop: for (int i = 0; i < 7; i++) s += i; return s; }",
            optimize=False,
        )
        profile = profile_module(module)
        func = module.get_function("main")
        header = func.block_by_name("loop.header")
        step = func.block_by_name("loop.step")
        assert profile.edge_count(step, header) == 7

    def test_total_cycles_positive(self, fig2_profile):
        assert fig2_profile.total_cycles > 0
        assert fig2_profile.total_seconds > 0


class TestRegionAggregation:
    def test_region_counts_fig2(self, fig2_module, fig2_profile):
        wpst = WPST(fig2_module)
        by_name = {}
        for node in wpst.ctrl_flow_vertices():
            by_name.setdefault((node.function.name, node.name), node)
        outer = by_name[("func1", "region:outer")]
        # main calls func1 4 times.
        assert fig2_profile.region_count(outer.region) == 4

    def test_region_cycles_nested_le_parent(self, fig2_module, fig2_profile):
        wpst = WPST(fig2_module)
        for node in wpst.ctrl_flow_vertices():
            for child in node.children:
                if child.region is None:
                    continue
                assert (
                    fig2_profile.region_cycles(child.region)
                    <= fig2_profile.region_cycles(node.region) + 1e-9
                )

    def test_time_shares_bounded(self, fig2_module, fig2_profile):
        wpst = WPST(fig2_module)
        for node in wpst.region_vertices():
            share = fig2_profile.region_time_share(node.region)
            assert 0.0 <= share <= 1.0 + 1e-9

    def test_unexecuted_region_count_zero(self):
        module = compile_source(
            """
            int cold(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
            int main() { return 0; }
            """,
            optimize=False,
        )
        profile = profile_module(module)
        wpst = WPST(module)
        for node in wpst.region_vertices():
            if node.function.name == "cold":
                assert profile.region_count(node.region) == 0

    def test_function_entries(self, fig2_module, fig2_profile):
        func0 = fig2_module.get_function("func0")
        assert fig2_profile.function_entries(func0) == 4


class TestInstructionCounts:
    def test_block_instructions_scale_with_block_size(self):
        module = compile_source(
            "int main() { int s = 0; loop: for (int i = 0; i < 10; i++)"
            " s += i * i + 3; return s; }",
            optimize=False,
        )
        profile = profile_module(module)
        func = module.get_function("main")
        body = func.block_by_name("loop.body")
        from repro.ir import Phi
        body_size = sum(
            1 for inst in body.instructions if not isinstance(inst, Phi)
        )
        assert body_size > 1
        # Regression: instruction counts are executions x block size, not
        # block-entry counts.
        assert profile.block_instructions(body) == 10 * body_size
        assert profile.block_instructions(body) > profile.block_count(body)

    def test_region_totals_match_interpreter_total(self, fig2_module):
        profile = profile_module(fig2_module)
        per_block = sum(
            profile.block_instructions(block)
            for func in fig2_module.defined_functions()
            for block in func.blocks
        )
        assert per_block == profile.counters.total_instructions


class TestTripCounts:
    def test_constant_trip(self):
        module = compile_source(
            "int main() { int s = 0; loop: for (int i = 0; i < 25; i++) s += i; return s; }",
            optimize=False,
        )
        profile = profile_module(module)
        info = LoopInfo(module.get_function("main"))
        assert profile.trip_count(info.loops[0]) == 25.0

    def test_nested_trip_counts(self, fig2_module, fig2_profile):
        info = LoopInfo(fig2_module.get_function("func1"))
        loops = {l.name: l for l in info.loops}
        assert fig2_profile.trip_count(loops["outer"]) == 30.0
        assert fig2_profile.trip_count(loops["dot_product"]) == 30.0
        assert fig2_profile.loop_entries(loops["dot_product"]) == 4 * 30

    def test_never_entered_loop(self):
        module = compile_source(
            "int main() { int s = 0; for (int i = 0; i < 0; i++) s += 1; return s; }",
            optimize=False,
        )
        profile = profile_module(module)
        info = LoopInfo(module.get_function("main"))
        assert profile.trip_count(info.loops[0]) == 0.0


class TestCallAttribution:
    def test_inclusive_cycles_at_call_site(self):
        module = compile_source(
            """
            int work(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
            int main() { return work(100); }
            """,
            optimize=False,
        )
        profile = profile_module(module)
        main_entry = module.get_function("main").entry
        work_cycles = sum(
            profile.block_cycles(b) for b in module.get_function("work").blocks
        )
        # The call-site block absorbs the callee's time (inclusive).
        assert profile.block_cycles(main_entry) >= work_cycles
