"""Interval-analysis tests: lattice algebra, loop ranges, branch
refinement, interprocedural seeding, trip bounds, and exact results."""

from repro.dataflow import Interval, IntervalAnalysis, ModuleIntervalAnalysis
from repro.frontend import compile_source
from repro.ir import BinaryOp, Phi


class TestIntervalAlgebra:
    def test_join(self):
        assert Interval(0, 3).join(Interval(5, 9)) == Interval(0, 9)
        assert Interval(None, 3).join(Interval(5, 9)) == Interval(None, 9)

    def test_intersect_empty(self):
        assert Interval(0, 3).intersect(Interval(5, 9)).is_bottom

    def test_add_sub(self):
        assert Interval(1, 2).add(Interval(10, 20)) == Interval(11, 22)
        assert Interval(1, 2).sub(Interval(10, 20)) == Interval(-19, -8)

    def test_mul_corners(self):
        assert Interval(-2, 3).mul(Interval(-5, 7)) == Interval(-15, 21)

    def test_contains_and_subset(self):
        assert Interval(0, None).contains(7)
        assert not Interval(0, None).contains(-1)
        assert Interval(2, 3).subset_of(Interval(0, 10))
        assert not Interval(2, 30).subset_of(Interval(0, 10))

    def test_of_type(self):
        assert Interval.of_type(8) == Interval(-128, 127)
        assert Interval.of_type(1) == Interval(0, 1)


def analysis_for(source, name="kernel"):
    module = compile_source(source, "t")
    return ModuleIntervalAnalysis(module).for_function(
        module.get_function(name)
    )


def induction_phi_of(analysis):
    phi = analysis.loop_info.loops[0].induction_phi()
    assert isinstance(phi, Phi)
    return phi


COUNTED_LOOP = """
int A[64];
int kernel(int n) {
  for (int i = 0; i < n; i = i + 1) { A[i] = i; }
  return A[0];
}
int main() { return kernel(64); }
"""


class TestLoopRanges:
    def test_induction_variable_bounded_by_seeded_n(self):
        analysis = analysis_for(COUNTED_LOOP)
        phi = induction_phi_of(analysis)
        interval = analysis.interval_of(phi)
        # The header range includes the exit value n == 64; thresholds
        # widening must stop at a program constant, not escape to +inf.
        assert interval.lo == 0
        assert interval.hi is not None and interval.hi <= 64

    def test_static_trip_bound(self):
        analysis = analysis_for(COUNTED_LOOP)
        loop = analysis.loop_info.loops[0]
        trip = analysis.static_trip_bound(loop)
        assert trip is not None and 64 <= trip <= 65


BRANCHY = """
int kernel(int x) {
  if (x < 10) { if (x > 3) { return x; } }
  return 0;
}
int main() { return kernel(7); }
"""


class TestBranchRefinement:
    def test_nested_guards_tighten_argument(self):
        module = compile_source(BRANCHY, "t")
        func = module.get_function("kernel")
        analysis = IntervalAnalysis(func)  # unseeded: arg starts at ⊤ range
        returned = None
        for block in analysis.rpo:
            term = block.terminator
            if term is not None and term.opcode == "ret" and term.value is func.arguments[0]:
                returned = analysis.interval_of(func.arguments[0], block)
        assert returned is not None
        assert returned.lo == 4 and returned.hi == 9


class TestInterprocedural:
    def test_callee_argument_seeded_from_call_sites(self):
        source = """
int kernel(int n) { return n + 1; }
int main() { return kernel(10) + kernel(20); }
"""
        analysis = analysis_for(source)
        arg = analysis.func.arguments[0]
        assert analysis.arg_intervals[arg] == Interval(10, 20)

    def test_uncalled_function_gets_type_range(self):
        source = "int lonely(int n) { return n; }"
        module = compile_source(source, "t")
        analysis = ModuleIntervalAnalysis(module).for_function(
            module.get_function("lonely")
        )
        assert analysis.arg_intervals == {}


class TestExactResult:
    def test_overflowing_add_detected(self):
        source = """
int kernel(int x) { return x + 2000000000; }
int main() { return kernel(2000000000); }
"""
        analysis = analysis_for(source)
        adds = [
            inst
            for inst in analysis.func.instructions()
            if isinstance(inst, BinaryOp) and inst.opcode == "add"
        ]
        exact = analysis.exact_result(adds[0])
        assert exact.lo == 4_000_000_000  # beyond i32: provable wrap
        # ...while the clamped program-visible interval stays in-type.
        assert analysis.interval_of(adds[0]).subset_of(Interval.of_type(32))

    def test_non_binary_returns_none(self):
        analysis = analysis_for(COUNTED_LOOP)
        assert analysis.exact_result(induction_phi_of(analysis)) is None
