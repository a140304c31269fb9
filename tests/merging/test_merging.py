"""Tests for accelerator merging: op matching, reconfigurable datapaths,
and the greedy solution-level merge driver (paper §III-E, Fig. 5)."""

import pytest

from repro.frontend import compile_source
from repro.hls import DEFAULT_TECHLIB, DFG
from repro.merging import (
    AcceleratorMerger,
    MergedUnit,
    estimate_pair_saving,
    match_units,
    merge_pair,
    merge_solution,
    op_index,
)
from repro.selection import Solution


def dfg_of(source, fname="f", block="entry"):
    module = compile_source(source, optimize=False)
    func = module.get_function(fname)
    return DFG.from_blocks([func.block_by_name(block)])


def match_dfgs(dfg_a, dfg_b):
    return match_units(op_index(dfg_a), op_index(dfg_b), DEFAULT_TECHLIB)


def matched_resources(match, dfg_a):
    """The resource class of every matched pair (both sides share it)."""
    return {dfg_a.nodes[i].resource for i, _ in match.positions}


LINEAR = "float x[8]; float y[8]; void f(int i, float k, float b) { y[i] = k * x[i] + b; }"
DOT = "float a[8]; float b[8]; float z[8]; void f(int i) { z[i] = z[i] + a[i] * b[i]; }"
INTS = "int g[8]; void f(int i) { g[i] = (i * 3 + 1) & 255; }"


class TestOpMatch:
    def test_identical_units_match_fully(self):
        a = dfg_of(LINEAR)
        b = dfg_of(LINEAR)
        match = match_dfgs(a, b)
        assert len(match.positions) == min(len(a), len(b))
        # Identical wiring: producers match, so no muxes at all.
        assert match.mux_area == 0
        assert match.shared_area == pytest.approx(
            op_index(a).fu_area(DEFAULT_TECHLIB))

    def test_similar_units_share_common_ops(self):
        a = dfg_of(LINEAR)  # fmul + fadd (+ ld/st/gep)
        b = dfg_of(DOT)     # fmul + fadd (+ lds/st/geps)
        matched = matched_resources(match_dfgs(a, b), a)
        assert "fmul" in matched and "fadd" in matched

    def test_disjoint_resources_no_match(self):
        a = dfg_of(LINEAR)
        b = dfg_of(INTS)
        matched = matched_resources(match_dfgs(a, b), a)
        assert "fmul" not in matched and "fadd" not in matched

    def test_mux_cost_for_different_wiring(self):
        a = dfg_of("float g[4]; void f(float p, float q) { g[0] = p * q + p; }")
        b = dfg_of("float g[4]; void f(float p, float q) { g[0] = p * q + (p * q) * q; }")
        match = match_dfgs(a, b)
        assert match.mux_area > 0
        assert match.config_bits > 0

    def test_width_classes_not_mixed(self):
        a = dfg_of("double g[4]; void f(double p) { g[0] = p + p; }")
        b = dfg_of("float g[4]; void f(float p) { g[0] = p + p; }")
        matched = matched_resources(match_dfgs(a, b), a) & {"fadd"}
        assert not matched  # f64 adder cannot absorb f32 adder


class TestMergePair:
    def test_merged_unit_op_count(self):
        a = MergedUnit("a", dfg_of(LINEAR), owner=0, member_names=["a"])
        b = MergedUnit("b", dfg_of(DOT), owner=1, member_names=["b"])
        saving, match = estimate_pair_saving(a, b, DEFAULT_TECHLIB)
        merged = merge_pair(a, b, DEFAULT_TECHLIB, match)
        assert len(merged.dfg.nodes) == (
            len(a.dfg.nodes) + len(b.dfg.nodes) - len(match.positions)
        )
        assert merged.member_names == ["a", "b"]

    def test_merged_area_bounded(self):
        """Merged unit area <= sum of parts (otherwise merging is refused)."""
        a = MergedUnit("a", dfg_of(LINEAR), owner=0, member_names=["a"])
        b = MergedUnit("b", dfg_of(LINEAR), owner=1, member_names=["b"])
        saving, match = estimate_pair_saving(a, b, DEFAULT_TECHLIB)
        merged = merge_pair(a, b, DEFAULT_TECHLIB, match)
        parts = a.total_area(DEFAULT_TECHLIB) + b.total_area(DEFAULT_TECHLIB)
        assert merged.total_area(DEFAULT_TECHLIB) <= parts
        assert saving == pytest.approx(
            parts - merged.total_area(DEFAULT_TECHLIB)
        )

    def test_identical_merge_saving_is_half(self):
        a = MergedUnit("a", dfg_of(LINEAR), owner=0, member_names=["a"])
        b = MergedUnit("b", dfg_of(LINEAR), owner=1, member_names=["b"])
        saving, _ = estimate_pair_saving(a, b, DEFAULT_TECHLIB)
        assert saving == pytest.approx(a.index.fu_area(DEFAULT_TECHLIB))


def cayman_solution(source, budget_ratio=2.0):
    """Run selection on a source and return the largest-area solution."""
    from repro.analysis import WPST
    from repro.interp import profile_module
    from repro.model import AcceleratorModel
    from repro.selection import CandidateSelector, PruneHeuristic

    module = compile_source(source)
    profile = profile_module(module)
    wpst = WPST(module)
    model = AcceleratorModel(module, profile)
    selector = CandidateSelector(
        wpst, model, prune=PruneHeuristic(profile), alpha=1.1
    )
    front = selector.run()
    non_empty = [s for s in front if not s.is_empty]
    return max(non_empty, key=lambda s: s.area), profile


THREE_IDENTICAL_LOOPS = """
float a1[64]; float a2[64]; float a3[64];
float b1[64]; float b2[64]; float b3[64];
void k1(int n) { l1: for (int i = 0; i < n; i++) b1[i] = 2.0f * a1[i] + 1.0f; }
void k2(int n) { l2: for (int i = 0; i < n; i++) b2[i] = 2.0f * a2[i] + 1.0f; }
void k3(int n) { l3: for (int i = 0; i < n; i++) b3[i] = 2.0f * a3[i] + 1.0f; }
int main() {
  for (int r = 0; r < 30; r++) { k1(64); k2(64); k3(64); }
  return 0;
}
"""


class TestMergeDriver:
    def test_identical_kernels_merge_substantially(self):
        solution, _ = cayman_solution(THREE_IDENTICAL_LOOPS)
        merged = merge_solution(solution)
        assert merged.merge_steps > 0
        # Like the paper's 3mm: identical datapaths give large savings.
        assert merged.saving_pct > 25

    def test_reusable_accelerator_members(self):
        solution, _ = cayman_solution(THREE_IDENTICAL_LOOPS)
        merged = merge_solution(solution)
        reusable = [a for a in merged.accelerators if a.is_reusable]
        assert reusable
        assert max(a.region_count for a in reusable) >= 2

    def test_area_never_negative_or_increased(self):
        solution, _ = cayman_solution(THREE_IDENTICAL_LOOPS)
        merged = merge_solution(solution)
        assert 0 <= merged.area_after <= merged.area_before

    def test_speedup_unchanged_by_merging(self):
        solution, profile = cayman_solution(THREE_IDENTICAL_LOOPS)
        merged = merge_solution(solution)
        assert merged.speedup(profile.total_seconds) == pytest.approx(
            solution.speedup(profile.total_seconds)
        )

    def test_single_accelerator_solution_no_merge_across(self):
        src = """
        float a[64]; float b[64];
        void k(int n) { l: for (int i = 0; i < n; i++) b[i] = 2.0f * a[i]; }
        int main() { for (int r = 0; r < 50; r++) k(64); return 0; }
        """
        solution, _ = cayman_solution(src)
        merged = merge_solution(solution)
        assert all(not a.is_reusable for a in merged.accelerators)

    def test_restricted_merging_blocks_dissimilar(self):
        solution, _ = cayman_solution(THREE_IDENTICAL_LOOPS)
        permissive = AcceleratorMerger(DEFAULT_TECHLIB).merge(solution)
        restricted = AcceleratorMerger(
            DEFAULT_TECHLIB, min_match_fraction=0.999
        ).merge(solution)
        assert restricted.saving <= permissive.saving + 1e-9

    def test_max_steps_cap(self):
        solution, _ = cayman_solution(THREE_IDENTICAL_LOOPS)
        merged = AcceleratorMerger(DEFAULT_TECHLIB, max_steps=1).merge(solution)
        assert merged.merge_steps <= 1

    def test_mean_regions_per_reusable(self):
        solution, _ = cayman_solution(THREE_IDENTICAL_LOOPS)
        merged = merge_solution(solution)
        if any(a.is_reusable for a in merged.accelerators):
            assert merged.mean_regions_per_reusable >= 2
