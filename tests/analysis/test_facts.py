"""The per-module facts bundle: memo invalidation, one construction of each
analysis along the verify sequence, and one construction site.

``ModuleFacts.of`` must hand back the same bundle while a module is
unchanged, and fresh facts that reflect the edit after any change to it.
"""

import ast
import os

import pytest

import repro
from repro.analysis.facts import ModuleFacts
from repro.analysis.memdep import MemoryDependenceAnalysis
from repro.analysis.wpst import WPST
from repro.dataflow import (
    BoundsAnalysis,
    Interval,
    IntervalAnalysis,
    KnownBitsAnalysis,
    PointsToAnalysis,
)
from repro.diagnostics import run_lint
from repro.frontend import compile_source
from repro.interp.profiler import profile_module
from repro.ir import (
    ArrayType,
    BinaryOp,
    Constant,
    I32,
    ICmp,
    IRBuilder,
)
from repro.model.estimator import AcceleratorModel
from repro.workloads import get_workload

from ..conftest import sanitize_both

#: ``main`` seeds ``n`` with [0, 99], so ``m`` spans [1, 100] and the
#: guarded ``m * 2`` spans [2, 18].
SOURCE = """
int A[16];
int g(int n) {
  int m = n + 1;
  if (m < 10) { return m * 2; }
  return 0;
}
int main() {
  int s = 0;
  for (int i = 0; i < 100; i = i + 1) { s = s + g(i); }
  A[3] = s;
  return A[3];
}
"""


def _module():
    return compile_source(SOURCE, "facts")


def _inst(module, cls, opcode=None):
    return next(
        inst for inst in module.get_function("g").instructions()
        if isinstance(inst, cls) and (opcode is None or inst.opcode == opcode)
    )


def _interval(facts, inst):
    return facts.intervals.for_function(inst.function).interval_of(inst)


class TestMemo:
    def test_unchanged_module_returns_the_same_facts(self):
        module = _module()
        facts = ModuleFacts.of(module)
        func = module.get_function("g")
        assert ModuleFacts.of(module) is facts
        assert ModuleFacts.of(module).context(func) is facts.context(func)

    def test_set_operand_gives_fresh_facts(self):
        module = _module()
        bump = _inst(module, BinaryOp, "add")
        facts = ModuleFacts.of(module)
        assert _interval(facts, bump) == Interval(1, 100)
        bump.set_operand(1, Constant(I32, 5))
        fresh = ModuleFacts.of(module)
        assert fresh is not facts
        assert _interval(fresh, bump) == Interval(5, 104)

    def test_in_place_predicate_change_gives_fresh_facts(self):
        module = _module()
        double = _inst(module, BinaryOp, "mul")
        facts = ModuleFacts.of(module)
        assert _interval(facts, double) == Interval(2, 18)
        _inst(module, ICmp).predicate = "sgt"
        fresh = ModuleFacts.of(module)
        assert fresh is not facts
        assert _interval(fresh, double) == Interval(22, 200)

    def test_inserted_instruction_gives_fresh_facts(self):
        module = _module()
        bump = _inst(module, BinaryOp, "add")
        facts = ModuleFacts.of(module)
        added = BinaryOp("add", bump, Constant(I32, 1), "again")
        bump.parent.insert_before_terminator(added)
        fresh = ModuleFacts.of(module)
        assert fresh is not facts
        assert _interval(fresh, added) == Interval(2, 101)

    def test_identical_looking_replacement_gives_fresh_facts(self):
        module = _module()
        double = _inst(module, BinaryOp, "mul")
        facts = ModuleFacts.of(module)
        text = str(module)
        twin = BinaryOp("mul", double.lhs, double.rhs, double.name)
        block = double.parent
        block.instructions[block.instructions.index(double)] = twin
        twin.parent = block
        for user in list(double.users):
            user.replace_operand(double, twin)
        assert str(module) == text
        fresh = ModuleFacts.of(module)
        assert fresh is not facts
        assert _interval(fresh, twin) == Interval(2, 18)

    def test_added_global_gives_fresh_facts(self):
        module = _module()
        facts = ModuleFacts.of(module)
        assert facts.points_to is not None
        extra = module.add_global("B", ArrayType(I32, 4))
        fresh = ModuleFacts.of(module)
        assert fresh is not facts
        assert fresh.points_to.site_labels(extra) == ["@B"]

    def test_added_function_gives_fresh_facts(self):
        module = _module()
        facts = ModuleFacts.of(module)
        assert len(facts.bounds.counts) == 2
        func = module.add_function("h", I32, [])
        builder = IRBuilder(func.add_block("entry"))
        seven = builder.add(builder.const_i32(3), builder.const_i32(4))
        builder.ret(seven)
        fresh = ModuleFacts.of(module)
        assert fresh is not facts
        assert func in fresh.bounds.counts
        assert _interval(fresh, seven) == Interval(7, 7)


@pytest.fixture
def constructions(monkeypatch):
    """Counts constructions of each counted analysis class."""
    counts = {}
    for cls in (IntervalAnalysis, KnownBitsAnalysis, PointsToAnalysis,
                BoundsAnalysis, MemoryDependenceAnalysis):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__,
                     **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_verify_sequence_builds_each_analysis_once(constructions):
    """Compile, profile, model, lint with the model, then sanitize on both
    engines: every consumer reads one facts bundle."""
    workload = get_workload("trisolv")
    module = compile_source(workload.source, workload.name)
    profile = profile_module(module, entry=workload.entry)
    wpst = WPST(module, entry_function=workload.entry)
    model = AcceleratorModel(module, profile)
    run_lint(module, profile=profile, wpst=wpst, model=model)
    runs = sanitize_both(module, calls=((workload.entry, ()),))
    assert all(output["violations"] == [] for output, _ in runs.values())
    functions = len(list(module.defined_functions()))
    assert constructions == {
        "IntervalAnalysis": functions,
        "KnownBitsAnalysis": functions,
        "PointsToAnalysis": 1,
        "BoundsAnalysis": 1,
        "MemoryDependenceAnalysis": functions,
    }


#: The module-level analyses, the per-function context and its dependence,
#: banking and reuse analyses, each constructed only by the facts bundle.
BUILT_BY_FACTS = {
    "ModuleIntervalAnalysis", "ModuleBitwidthAnalysis", "PointsToAnalysis",
    "BoundsAnalysis", "FunctionContext", "MemoryDependenceAnalysis",
    "BankingAnalysis", "ReuseAnalysis",
}


def test_module_analyses_have_one_construction_site():
    package = os.path.dirname(repro.__file__)
    sites = []
    for root, _dirs, files in os.walk(package):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                called = (
                    getattr(node.func, "id", None)
                    or getattr(node.func, "attr", None)
                )
                if called in BUILT_BY_FACTS:
                    sites.append((os.path.relpath(path, package), called))
    assert sorted(sites) == sorted(
        (os.path.join("analysis", "facts.py"), name)
        for name in BUILT_BY_FACTS
    )
