"""Memory-dependence aliasing tests: points-to-backed may-alias, the
sanitizer's ``alias`` injection (the historical blanket-restrict model),
and the inner-window disjointness test for outer-loop dependences."""

from repro.analysis.access_patterns import AccessPatternAnalysis
from repro.analysis.facts import ModuleFacts
from repro.analysis.memdep import MemoryDependenceAnalysis
from repro.dataflow import ModuleIntervalAnalysis, PointsToAnalysis
from repro.frontend import compile_source
from repro.interp.sanitizer import SanitizingInterpreter
from repro.workloads import get_workload


def analyses(source, name, func_name):
    module = compile_source(source, name)
    func = module.get_function(func_name)
    access = AccessPatternAnalysis(func)
    pta = PointsToAnalysis(module)
    intervals = ModuleIntervalAnalysis(module).for_function(func)
    return func, access, pta, intervals


class TestRestrictModelMisses:
    def setup_method(self):
        workload = get_workload("smooth-alias")
        self.func, self.access, self.pta, self.intervals = analyses(
            workload.source, workload.name, "smooth"
        )
        self.loop = self.access.loop_info.loops[0]

    def test_points_to_model_reports_alias_dependence(self):
        md = MemoryDependenceAnalysis(
            self.access, points_to=self.pta, intervals=self.intervals
        )
        deps = md.loop_carried(self.loop)
        assert any(d.via_alias for d in deps), (
            "smooth(buf, buf, n) must carry a dependence between dst and src"
        )

    def restrict_model(self):
        """Sound and ``alias``-injected (blanket-restrict) sanitizers of
        smooth-alias, plus each loop's ``via_alias`` dependences keyed the
        way the sanitizer keys its dependence claims."""
        workload = get_workload("smooth-alias")
        module = compile_source(workload.source, workload.name)
        sound = SanitizingInterpreter(module)
        restrict = SanitizingInterpreter(module, inject_unsound="alias")
        aliased = {}
        for func in module.defined_functions():
            ctx = ModuleFacts.of(module).context(func)
            for loop in ctx.loop_info.loops:
                aliased[loop] = {
                    frozenset((d.source.inst, d.sink.inst)): d
                    for d in ctx.memdep.loop_carried(loop) if d.via_alias
                }
        return sound, restrict, aliased

    def test_restrict_model_drops_it(self):
        """The ``alias`` injection keeps no dependence claim that only
        points-to aliasing produced."""
        sound, restrict, aliased = self.restrict_model()
        assert any(aliased.values())
        for loop, pairs in aliased.items():
            assert pairs.keys() <= sound._dep_claims[loop].keys()
            assert not pairs.keys() & restrict._dep_claims[loop].keys()

    def test_misses_reported_exactly(self):
        """The ``alias`` injection drops exactly the ``via_alias`` pairs and
        claims exactly their base pairs disjoint on top of the points-to
        claims."""
        sound, restrict, aliased = self.restrict_model()
        misses = [d for pairs in aliased.values() for d in pairs.values()]
        assert misses
        for loop, pairs in aliased.items():
            claims = sound._dep_claims[loop]
            assert restrict._dep_claims[loop] == {
                key: dist for key, dist in claims.items() if key not in pairs
            }
            assert len(claims) == len(restrict._dep_claims[loop]) + len(pairs)
        added = set(restrict._disjoint_claims) - set(sound._disjoint_claims)
        assert set(sound._disjoint_claims) <= set(restrict._disjoint_claims)
        assert {frozenset(pair) for pair in added} == {
            frozenset((d.source.base, d.sink.base)) for d in misses
        }


ELIMINATION = """
float A[16][16];
void elim(int n) {
  for (int k = 0; k < n - 1; k = k + 1) {
    for (int i = k + 1; i < n; i = i + 1) {
      for (int j = k; j < n; j = j + 1) {
        A[i][j] = A[i][j] - A[k][j];
      }
    }
  }
}
int main() { elim(16); return 0; }
"""

RECTANGULAR = """
float C[16][16];
void fill(int n) {
  for (int i = 0; i < n; i = i + 1) {
    for (int j = 0; j < n; j = j + 1) {
      C[i][j] = C[i][j] + 1.0f;
    }
  }
}
int main() { fill(16); return 0; }
"""


def outer_deps(source, name, func_name):
    func, access, pta, intervals = analyses(source, name, func_name)
    md = MemoryDependenceAnalysis(access, points_to=pta, intervals=intervals)
    outer = max(access.loop_info.loops, key=lambda l: len(l.blocks))
    return md.loop_carried(outer)


class TestInnerWindowDisjointness:
    def test_gaussian_elimination_outer_loop_is_carried(self):
        """Iteration k stores rows i > k that iteration i later reads: the
        rows-assumed-disjoint shortcut must not fire here."""
        deps = outer_deps(ELIMINATION, "elim", "elim")
        flows = [d for d in deps if d.kind == "flow"]
        assert flows, "elimination outer loop lost its carried flow dependence"
        assert min(d.effective_distance for d in flows) == 1

    def test_rectangular_rows_stay_disjoint(self):
        """C[i][j] touches row i only: the outer-loop stride (one row)
        exceeds the inner window, so no carried dependence exists."""
        assert outer_deps(RECTANGULAR, "fill", "fill") == []

    def test_unknown_trip_bound_is_conservative(self):
        """Without interval facts the inner window is unbounded: a carried
        dependence must still be assumed (the j-index could run past the
        row), claiming at most the trivially sound distance 1 and never an
        *exact* vector."""
        module = compile_source(RECTANGULAR, "rect")
        func = module.get_function("fill")
        access = AccessPatternAnalysis(func)
        md = MemoryDependenceAnalysis(access)  # no intervals supplied
        outer = max(access.loop_info.loops, key=lambda l: len(l.blocks))
        deps = md.loop_carried(outer)
        assert deps
        assert all(d.effective_distance == 1 for d in deps)
        assert all(d.vector is None or not d.vector.exact for d in deps)
