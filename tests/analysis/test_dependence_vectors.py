"""Affine dependence-vector tests: residue-lattice sets, the per-level
solver, SCEV affinity of linearized subscripts, frozen outer levels, and
the memdep wiring (proven distances, vectors, descending-loop and
symbolic-lag regressions)."""

import pytest

from repro.analysis import (
    AccessPatternAnalysis,
    DependenceTester,
    LatticeSet,
    MemoryDependenceAnalysis,
    SCEVAddRec,
)
from repro.dataflow import ModuleIntervalAnalysis, PointsToAnalysis
from repro.frontend import compile_source

from ..conftest import sanitize_both


def build(source, name, func_name, with_intervals=True, optimize=True):
    module = compile_source(source, name, optimize=optimize)
    func = module.get_function(func_name)
    access = AccessPatternAnalysis(func)
    intervals = (
        ModuleIntervalAnalysis(module).for_function(func) if with_intervals else None
    )
    md = MemoryDependenceAnalysis(
        access,
        points_to=PointsToAnalysis(module),
        intervals=intervals,
    )
    return func, access, md


def loop_named(access, fragment):
    for loop in access.loop_info.loops:
        if fragment in loop.name:
            return loop
    raise AssertionError(f"no loop matching {fragment!r}")


class TestLatticeSet:
    def test_same_stride_sum_is_exact(self):
        a = LatticeSet.index_range(4, 10)
        b = LatticeSet.index_range(-4, 10)
        s = a.add(b)
        assert (s.g, s.r, s.lo, s.hi, s.exact) == (4, 0, -36, 36, True)

    def test_mixed_stride_sum_coarsens(self):
        s = LatticeSet.index_range(6, 5).add(LatticeSet.index_range(4, 5))
        assert s.g == 2 and not s.exact

    def test_singleton_shift_stays_exact(self):
        s = LatticeSet.index_range(8, 4).add(LatticeSet.singleton(3))
        assert (s.g, s.r, s.exact) == (8, 3, True)

    def test_unknown_trip_is_inexact_and_unbounded(self):
        s = LatticeSet.index_range(4, None)
        assert s.hi is None and not s.exact

    def test_make_tightens_and_detects_empty(self):
        s = LatticeSet.make(8, 3, 0, 30, True)
        assert (s.lo, s.hi) == (3, 27)
        # [4, 10] contains no x ≡ 3 (mod 8): 3 < 4 and the next is 11 > 10
        assert LatticeSet.make(8, 3, 4, 10, True) is None


class TestSolveLevel:
    def solve(self, **kw):
        args = dict(coeff=4, delta=0, rest=LatticeSet.singleton(0), w_lo=-3, w_hi=3)
        args.update(kw)
        return DependenceTester._solve_level(
            args["coeff"], args["delta"], args["rest"], args["w_lo"], args["w_hi"],
            args.get("m_bound"),
        )

    def test_siv_exact_distance(self):
        zero, pos, neg = self.solve(delta=8)  # A[i] vs A[i-2]
        assert (zero, pos, neg) == (False, None, 2)

    def test_gcd_infeasible(self):
        # stride 8, byte offset 4 apart, 4-byte accesses: never overlap
        zero, pos, neg = self.solve(coeff=8, delta=4)
        assert (zero, pos, neg) == (False, None, None)

    def test_zero_coeff_feasibility(self):
        zero, pos, neg = self.solve(coeff=0)
        assert (zero, pos, neg) == (True, 1, 1)
        zero, pos, neg = self.solve(coeff=0, m_bound=0)
        assert (zero, pos, neg) == (True, None, None)

    def test_trip_bound_prunes_far_solutions(self):
        # only solution m = ±5 but the loop runs 4 iterations
        zero, pos, neg = self.solve(delta=20, m_bound=3)
        assert (zero, pos, neg) == (False, None, None)

    def test_congruence_with_lattice_rest(self):
        # 4m + s = t with s ∈ {x ≡ 0 (mod 96), |x| ≤ 96*23}: A[i][j] vs A[i][j-1]
        rest = LatticeSet.index_range(96, 24).add(LatticeSet.index_range(-96, 24))
        zero, pos, neg = self.solve(delta=4, rest=rest, m_bound=23)
        assert not zero
        assert neg == 1    # the real dependence, one j-iteration back
        assert pos == 23   # wrapping into the next row


SIV = """
int A[64];
void kern() {
  for (int i = 2; i < 64; i = i + 1) {
    A[i] = A[i - 2] + 1;
  }
}
int main() { kern(); return 0; }
"""


class TestMemdepVectors:
    def test_siv_proven_distance(self):
        func, access, md = build(SIV, "siv", "kern")
        loop = access.loop_info.loops[0]
        flows = [d for d in md.loop_carried(loop) if d.kind == "flow"]
        assert len(flows) == 1
        dep = flows[0]
        assert dep.distance == 2
        assert dep.effective_distance == 2
        assert dep.vector is not None and dep.vector.exact
        (entry,) = [e for e in dep.vector.entries if e.loop is loop]
        assert entry.direction == "<" and entry.distance == 2

    def test_stride_two_same_parity_is_independent(self):
        src = """
        int A[64];
        void kern() {
          for (int i = 0; i < 30; i = i + 1) {
            A[2 * i] = A[2 * i + 1] + 1;
          }
        }
        int main() { kern(); return 0; }
        """
        func, access, md = build(src, "parity", "kern")
        loop = access.loop_info.loops[0]
        assert md.loop_carried(loop) == []

    def test_2d_stencil_vector(self):
        src = """
        int A[24][24];
        void kern() {
          for (int i = 0; i < 24; i = i + 1) {
            for (int j = 1; j < 24; j = j + 1) {
              A[i][j] = A[i][j - 1] + 1;
            }
          }
        }
        int main() { kern(); return 0; }
        """
        func, access, md = build(src, "stencil", "kern")
        inner = next(l for l in access.loop_info.loops if l.is_innermost)
        outer = next(l for l in access.loop_info.loops if not l.is_innermost)
        inner_flows = [d for d in md.loop_carried(inner) if d.kind == "flow"]
        assert len(inner_flows) == 1
        assert inner_flows[0].distance == 1
        # rows are disjoint: the outer loop carries nothing
        assert all(d.kind != "flow" for d in md.loop_carried(outer))

    def test_linearized_subscript_is_affine(self):
        src = """
        int A[576];
        void kern(int n) {
          for (int i = 1; i < 24; i = i + 1) {
            for (int j = 0; j < 24; j = j + 1) {
              A[i * n + j] = A[(i - 1) * n + j] + 1;
            }
          }
        }
        int main() { kern(24); return 0; }
        """
        func, access, md = build(src, "linear", "kern")
        # satellite: i*n is an addrec with an invariant symbolic step
        stores = [a for a in access.accesses() if a.is_store]
        assert stores and all(isinstance(a.offset, SCEVAddRec) for a in stores)
        assert all(a.is_stream for a in stores)
        assert all(a.affine_addrec_levels() is not None for a in stores)
        outer = next(l for l in access.loop_info.loops if not l.is_innermost)
        flows = [d for d in md.loop_carried(outer) if d.kind == "flow"]
        assert len(flows) == 1
        # n resolves to 24 through interprocedural intervals: exact distance
        assert flows[0].distance == 1
        assert flows[0].vector is not None

    def test_reduction_scalar_distance_one(self):
        src = """
        int s[1];
        int A[32];
        void kern() {
          for (int i = 0; i < 32; i = i + 1) {
            s[0] = s[0] + A[i];
          }
        }
        int main() { kern(); return 0; }
        """
        # optimize=False: the optimizer legitimately sinks the s[0] store
        # out of the loop (scalar promotion), dissolving the memory dep.
        func, access, md = build(src, "red", "kern", optimize=False)
        loop = access.loop_info.loops[0]
        flows = [d for d in md.loop_carried(loop) if d.kind == "flow"]
        assert flows and flows[0].distance == 1
        (entry,) = [e for e in flows[0].vector.entries if e.loop is loop]
        assert entry.direction == "*"

    def test_loop_carried_is_memoized(self):
        func, access, md = build(SIV, "siv-memo", "kern")
        loop = access.loop_info.loops[0]
        assert md.loop_carried(loop) is md.loop_carried(loop)


DESCENDING = """
int A[64];
void kern() {
  for (int i = 60; i > 0; i = i - 1) {
    A[i] = A[i + 3] + 1;
  }
}
int main() { kern(); return 0; }
"""


class TestDescendingLoops:
    """Satellite regression: ``abs(diff // stride)`` floor-divided before
    taking the absolute value; descending (negative-stride) loops must get
    the same distances as their ascending mirrors."""

    @pytest.mark.parametrize("with_intervals", [True, False])
    def test_descending_distance(self, with_intervals):
        # The distance comes from the subscripts' strides alone; interval
        # facts only bound trip counts and must not change it.
        func, access, md = build(
            DESCENDING, f"desc-{with_intervals}", "kern",
            with_intervals=with_intervals,
        )
        loop = access.loop_info.loops[0]
        flows = [d for d in md.loop_carried(loop) if d.kind == "flow"]
        assert len(flows) == 1
        # A[i] written at iteration t is read as A[i+3] three iterations
        # later (i descending): distance 3.
        assert flows[0].distance == 3

    def test_descending_non_divisible_is_independent(self):
        src = """
        int A[64];
        void kern() {
          for (int i = 60; i > 3; i = i - 2) {
            A[i] = A[i + 3] + 1;
          }
        }
        int main() { kern(); return 0; }
        """
        func, access, md = build(src, "desc-odd", "kern")
        loop = access.loop_info.loops[0]
        # stride -8 bytes, offset difference 12 bytes: 12 is not a multiple
        # of 8 and the 4-byte windows never meet.
        assert md.loop_carried(loop) == []


ROWS = """
int P[16][16];
void kern() {
  for (int k = 0; k < 16; k = k + 1) {
    for (int i = 0; i < 16; i = i + 1) {
      for (int j = 0; j < 16; j = j + 1) {
        P[i][j] = P[i][j] + P[k][j];
      }
    }
  }
}
int main() { kern(); return 0; }
"""

WIDE_WINDOW = """
int A[64];
void kern() {
  for (int k = 0; k < 4; k = k + 1) {
    for (int i = 0; i < 4; i = i + 1) {
      for (int j = 0; j < 16; j = j + 1) {
        A[i * 8 + j] = A[i * 8 + j] + A[k * 8 + j];
      }
    }
  }
}
int main() { kern(); return 0; }
"""


def row_pair(md, access):
    """The innermost loop, the store and the load whose row comes from the
    outermost loop (``P[k][j]``)."""
    inner = next(l for l in access.loop_info.loops if l.is_innermost)
    outer = next(l for l in access.loop_info.loops if l.depth == 1)
    store = next(a for a in access.accesses() if a.is_store)
    load = next(
        a for a in access.accesses()
        if a.is_load and outer in md.resolver.full(a).coeffs
    )
    return inner, store, load


class TestFrozenOuterLevels:
    """Enclosing loops whose coefficients differ between the two accesses
    (rows picked by different outer indices) shift every instance pair by
    one multiple of the row stride."""

    def test_distinct_rows_are_independent_in_the_column_loop(self):
        _, access, md = build(ROWS, "rows", "kern")
        inner, store, load = row_pair(md, access)
        verdict = md.tester.test_pair(store, load, inner)
        assert verdict is not None and verdict.independent
        assert md.loop_carried(inner) == []

    def test_window_spanning_the_row_stride_stays_carried(self):
        # j sweeps 16 elements, twice the 8-element row stride: row i's
        # tail is row i+1's head, so A[i*8+j] meets A[k*8+j] at distance 8.
        _, access, md = build(WIDE_WINDOW, "wide-window", "kern")
        inner, store, load = row_pair(md, access)
        assert md.tester.test_pair(store, load, inner) is None
        assert any(
            d.source is store and d.sink is load and d.kind == "flow"
            and d.distance is None
            for d in md.loop_carried(inner)
        )


SYMBOLIC_LAG = """
int W[64];
void kern(int lag) {
  for (int j = 8; j < 64; j = j + 1) {
    W[j] = W[j - lag] + 1;
  }
}
int main() { kern(3); kern(5); return W[63]; }
"""


class TestSymbolicLag:
    """Regression: a loop-invariant lag proven only to a range (here
    ``lag ∈ [3, 5]``) is no constant, yet equal strides once made the pair
    "disjoint" and the recurrence vanished."""

    def test_range_lag_stays_carried(self):
        _, access, md = build(SYMBOLIC_LAG, "lag", "kern")
        loop = access.loop_info.loops[0]
        flows = [d for d in md.loop_carried(loop) if d.kind == "flow"]
        assert len(flows) == 1
        assert flows[0].effective_distance <= 3

    def test_sanitizer_observes_no_missing_dependence(self):
        module = compile_source(SYMBOLIC_LAG, "lag-sanitize")
        for output, _ in sanitize_both(module).values():
            assert output["violations"] == []
