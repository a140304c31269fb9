"""Engine-level tests of the map-lattice worklist solver."""

from repro.analysis.cfg import reverse_postorder
from repro.dataflow import (
    EnvDataflow,
    ModuleBitwidthAnalysis,
    ModuleIntervalAnalysis,
)
from repro.frontend import compile_source
from repro.telemetry import Telemetry, use
from repro.workloads import get_workload, workload_names


class Depth(int):
    """A path length; the join is the max, returned as an operand."""

    def join(self, other):
        return self if self >= other else other


class PathLength(EnvDataflow):
    """Toy client: each block's terminator holds the longest acyclic path
    length from the entry to that block (join = max).

    The terminator's fact is one more than every fact that reaches the
    block, so on cyclic CFGs the facts keep growing and convergence
    depends entirely on the engine applying :meth:`widen` at loop headers.
    """

    CAP = 1_000_000

    def __init__(self, func):
        #: (loop header, its visits before this one) per widening
        self.widened_at = []
        self.visits = {}
        super().__init__(func)

    def top(self, value):
        return Depth(0)

    def fact_of(self, value, env):
        return env.get(value, Depth(0))

    def transfer_inst(self, inst, env):
        if inst is not inst.parent.terminator:
            return None
        self.visits[inst.parent] = self.visits.get(inst.parent, 0) + 1
        return Depth(1 + max(env.values(), default=0))

    def widen(self, old, new, block):
        self.widened_at.append((block, self.visits[block]))
        return dict.fromkeys(new, Depth(self.CAP))


def func_of(source, name):
    module = compile_source(source, "t", optimize=False)
    return module.get_function(name)


def length(states, block):
    return states[block][block.terminator]


DIAMOND = """
int f(int c) {
  int x = 0;
  if (c > 0) { x = 1; } else { x = 2; }
  return x;
}
"""

LOOPY = """
int f(int n) {
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s = s + i; }
  return s;
}
"""


class TestAcyclic:
    def test_no_widening_on_acyclic_cfg(self):
        func = func_of(DIAMOND, "f")
        analysis = PathLength(func).solve()
        assert analysis.widened_at == []

    def test_path_lengths_follow_cfg(self):
        func = func_of(DIAMOND, "f")
        analysis = PathLength(func).solve()
        # Entry starts from no facts; every block adds one.
        assert analysis.in_states[func.entry] == {}
        assert length(analysis.out_states, func.entry) == 1
        exit_block = [b for b in analysis.rpo if not b.successors][0]
        # join(max) over both arms of the diamond, +1 for the exit itself.
        depth = max(
            length(analysis.out_states, p) for p in analysis.preds[exit_block]
        )
        assert depth == 2
        assert length(analysis.out_states, exit_block) == depth + 1


class TestCyclic:
    def test_widening_forces_convergence(self):
        func = func_of(LOOPY, "f")
        analysis = PathLength(func).solve()
        assert analysis.widened_at, "loop header was never widened"
        headers = {loop.header for loop in analysis.loop_info.loops}
        assert {block for block, _ in analysis.widened_at} <= headers

    def test_widen_applied_after_threshold_visits(self):
        func = func_of(LOOPY, "f")
        for widen_after in (1, EnvDataflow.widen_after):
            analysis = PathLength(func)
            analysis.widen_after = widen_after
            analysis.solve()
            # The facts grow on every trip, so the header is first widened
            # on the visit right after its first ``widen_after`` visits.
            header, visits_before = analysis.widened_at[0]
            assert visits_before == widen_after
            assert length(analysis.out_states, header) > PathLength.CAP


class TestDeterminism:
    def test_rpo_matches_cfg_helper(self):
        func = func_of(LOOPY, "f")
        analysis = PathLength(func).solve()
        assert analysis.rpo == reverse_postorder(func)

    def test_repeated_solves_identical(self):
        func = func_of(LOOPY, "f")
        first = PathLength(func).solve()
        second = PathLength(func).solve()
        assert first.in_states == second.in_states
        assert first.out_states == second.out_states


def test_sharing_rule_work_on_the_registry():
    """The interval and known-bits solves of every registered workload,
    counted under one telemetry.  ``values_joined`` counts only the fact
    joins the sharing rule could not skip, so a change that re-joins
    shared facts (or alters the worklist order, widening or narrowing)
    moves these totals even when every fact stays the same."""
    tele = Telemetry()
    with use(tele):
        for name in workload_names():
            module = compile_source(get_workload(name).source, name)
            bitwidth = ModuleBitwidthAnalysis(
                module, ModuleIntervalAnalysis(module)
            )
            for func in module.defined_functions():
                bitwidth.for_function(func)
    counters = tele.snapshot()["counters"]
    assert {
        key: value for key, value in counters.items()
        if key.startswith("dataflow.")
    } == {
        "dataflow.solves": 310,
        "dataflow.worklist_iterations": 29362,
        "dataflow.widenings": 7624,
        "dataflow.narrow_sweeps": 365,
        "dataflow.values_joined": 162328,
    }
