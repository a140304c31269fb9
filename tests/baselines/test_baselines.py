"""Tests for the NOVIA and QsCores baseline reimplementations."""

import pytest

from repro.baselines import Novia, NoviaModel, QsCores, QsCoresModel, compute_subdfg
from repro.frontend import compile_source
from repro.hls import DFG
from repro.interp import profile_module
from repro.analysis import WPST
from repro.model import InterfaceKind


COMPUTE_HEAVY = """
float a[64]; float b[64]; float out[64];
void k(int n) {
  loop: for (int i = 0; i < n; i++) {
    float x = a[i]; float y = b[i];
    out[i] = ((x * y + x) * y + x) * y + 1.5f * x;
  }
}
int main() {
  for (int i = 0; i < 64; i++) { a[i] = (float)i; b[i] = (float)(64 - i); }
  for (int r = 0; r < 40; r++) k(64);
  return 0;
}
"""


class TestComputeSubDFG:
    def test_memory_excluded(self):
        module = compile_source(COMPUTE_HEAVY)
        func = module.get_function("k")
        body = func.block_by_name("loop.body")
        sub = compute_subdfg(DFG.from_blocks([body]))
        resources = {n.resource for n in sub.nodes}
        assert "load" not in resources and "store" not in resources
        assert "gep" not in resources
        assert "fmul" in resources

    def test_edges_rewired_within_kept_set(self):
        module = compile_source(COMPUTE_HEAVY)
        func = module.get_function("k")
        body = func.block_by_name("loop.body")
        sub = compute_subdfg(DFG.from_blocks([body]))
        kept = set(sub.nodes)
        for node in sub.nodes:
            for pred in node.preds:
                assert pred in kept


class TestNovia:
    def test_candidates_only_on_bb_vertices(self):
        module = compile_source(COMPUTE_HEAVY)
        profile = profile_module(module)
        wpst = WPST(module)
        model = NoviaModel(module, profile)
        for node in wpst.ctrl_flow_vertices():
            assert model.candidates(node) == []
        bb_estimates = [
            est for node in wpst.region_vertices() if node.kind == "bb"
            for est in model.candidates(node)
        ]
        assert bb_estimates  # the hot body block yields a CFU

    def test_estimates_have_no_interfaces(self):
        module = compile_source(COMPUTE_HEAVY)
        profile = profile_module(module)
        wpst = WPST(module)
        model = NoviaModel(module, profile)
        for node in (n for n in wpst.region_vertices() if n.kind == "bb"):
            for est in model.candidates(node):
                assert est.interface_counts == {}

    def test_end_to_end_speedup_bounds(self):
        result = Novia().run(COMPUTE_HEAVY)
        speedup = result.speedup_under_budget(0.65)
        # CFU gains are real but small (low-left corner of Fig. 6).
        assert 1.0 <= speedup < 2.0

    def test_low_area_footprint(self):
        result = Novia().run(COMPUTE_HEAVY)
        for merged in result.merged:
            assert merged.area_after < 0.25 * 2_500_000

    def test_tiny_dfgs_rejected(self):
        src = """
        int g[8];
        int main() {
          for (int r = 0; r < 100; r++)
            for (int i = 0; i < 8; i++) g[i] = g[i] + 1;
          return 0;
        }
        """
        result = Novia().run(src)
        assert result.speedup_under_budget(0.65) == pytest.approx(1.0)


class TestQsCores:
    def test_model_is_sequential_scanchain(self):
        module = compile_source(COMPUTE_HEAVY)
        profile = profile_module(module)
        wpst = WPST(module)
        model = QsCoresModel(module, profile)
        node = next(
            n for n in wpst.ctrl_flow_vertices()
            if n.function.name == "k" and n.name == "region:loop"
        )
        estimates = model.candidates(node)
        for est in estimates:
            assert est.pipelined_regions == 0  # sequential control only
            counts = est.interface_counts
            assert counts["scanchain"] > 0
            assert counts["decoupled"] == 0 and counts["scratchpad"] == 0

    def test_end_to_end_profits_on_compute_heavy(self):
        result = QsCores().run(COMPUTE_HEAVY)
        assert result.speedup_under_budget(0.65) > 1.0

    def test_qscores_below_cayman(self):
        from repro.framework import Cayman

        qscores = QsCores().run(COMPUTE_HEAVY)
        cayman = Cayman().run(COMPUTE_HEAVY)
        assert (
            cayman.speedup_under_budget(0.65)
            > qscores.speedup_under_budget(0.65)
        )

    def test_pareto_points_sorted(self):
        result = QsCores().run(COMPUTE_HEAVY)
        points = result.pareto_points()
        areas = [a for a, _ in points]
        assert areas == sorted(areas)


class TestRelativeOrdering:
    """The paper's headline ordering on a representative kernel."""

    def test_full_ordering(self):
        """Cayman dominates every baseline (Table II holds row-wise); the
        NOVIA/QsCores order varies per kernel (scalar-compute kernels favor
        NOVIA, memory-rich kernels favor QsCores), as in the paper where
        over-NOVIA and over-QsCores ratios cross for e.g. symm and md."""
        from repro.framework import Cayman

        cayman = Cayman().run(COMPUTE_HEAVY).speedup_under_budget(0.65)
        coupled = Cayman(coupled_only=True).run(COMPUTE_HEAVY).speedup_under_budget(0.65)
        qscores = QsCores().run(COMPUTE_HEAVY).speedup_under_budget(0.65)
        novia = Novia().run(COMPUTE_HEAVY).speedup_under_budget(0.65)
        assert cayman >= coupled >= 1.0
        assert qscores >= 1.0 and novia >= 1.0
        assert cayman > qscores
        assert cayman > novia
