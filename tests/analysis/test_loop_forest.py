"""One loop forest per function.

``LoopInfo.of(func)`` memoizes the forest on the function, keyed by the
CFG (each block with its successor tuple).  Every pass and analysis reads
it, so along the verify path each function's loops, headers and dominator
tree are one set of objects: an instruction-only edit keeps the forest, a
CFG edit rebuilds it.
"""

import ast
import os

import pytest

import repro
from repro.analysis.facts import ModuleFacts
from repro.analysis.loops import LoopInfo
from repro.analysis.wpst import WPST
from repro.diagnostics import run_lint
from repro.diagnostics.engine import LintContext
from repro.frontend import compile_source
from repro.interp.compiled import _FunctionCompiler
from repro.interp.profiler import profile_module
from repro.interp.sanitizer import SanitizingInterpreter
from repro.ir import Branch
from repro.model.estimator import AcceleratorModel
from repro.opt import hoist_invariants, simplify_cfg
from repro.workloads import get_workload


@pytest.fixture
def compiled_forests(monkeypatch):
    """Function -> every forest the compiled engine shaped it with."""
    seen = {}
    original = _FunctionCompiler._shape

    def recording(self):
        original(self)
        seen.setdefault(self.func, []).append(self.loops)

    monkeypatch.setattr(_FunctionCompiler, "_shape", recording)
    return seen


@pytest.fixture
def forest_builds(monkeypatch):
    """Counts ``LoopInfo`` constructions from the moment it is read."""
    builds = []
    original = LoopInfo.__init__

    def counting(self, func):
        builds.append(func)
        original(self, func)

    monkeypatch.setattr(LoopInfo, "__init__", counting)
    return builds


def test_verify_path_shares_one_forest_per_function(
    compiled_forests, forest_builds
):
    """gramschmidt (a loop nest in a callee, ``init`` and ``main``) down
    compile, profile, wPST, model contexts, lint and sanitize: the compiled
    engine, the facts, both dataflow solves and lint all read
    ``LoopInfo.of``, and no function's forest is built twice after
    compilation."""
    workload = get_workload("gramschmidt")
    module = compile_source(workload.source, workload.name)
    functions = list(module.defined_functions())
    del forest_builds[:]
    profile = profile_module(module, entry=workload.entry)
    wpst = WPST(module, entry_function=workload.entry)
    model = AcceleratorModel(module, profile)
    lint = LintContext(module, profile=profile, wpst=wpst)
    run_lint(module, profile=profile, wpst=wpst, model=model, context=lint)
    sanitizer = SanitizingInterpreter(module, fail_fast=False)
    sanitizer.run(workload.entry)
    assert sanitizer.violations == []

    facts = ModuleFacts.of(module)
    assert max(loop.depth for loop in LoopInfo.of(
        module.get_function("gramschmidt")).loops) >= 2
    for func in functions:
        forest = LoopInfo.of(func)
        assert compiled_forests[func]
        assert all(seen is forest for seen in compiled_forests[func])
        assert model.context(func).loop_info is forest
        assert facts.intervals.for_function(func).loop_info is forest
        known = facts.bitwidth.for_function(func).known_bits
        assert known.loop_info is forest
        assert lint.loop_info(func) is forest
    assert len(forest_builds) <= len(functions)
    assert len(set(forest_builds)) == len(forest_builds)


#: ``k * 3`` is invariant in the inner loop; the lowered CFG has
#: forwarding blocks ``simplify_cfg`` folds.
SOURCE = """
int A[8][8];
void f(int k) {
  for (int i = 0; i < 8; i = i + 1) {
    for (int j = 0; j < 8; j = j + 1) {
      A[i][j] = A[i][j] + k * 3;
    }
  }
}
"""


def _lowered():
    return compile_source(SOURCE, "forest", optimize=False).get_function("f")


def test_hoist_keeps_the_forest():
    func = _lowered()
    forest = LoopInfo.of(func)
    assert LoopInfo.of(func) is forest
    assert hoist_invariants(func) > 0
    assert LoopInfo.of(func) is forest


def test_split_edge_rebuilds_the_forest():
    func = _lowered()
    forest = LoopInfo.of(func)
    inner = next(loop for loop in forest.loops if loop.depth == 2)
    latch, header = inner.latches[0], inner.header
    split = func.add_block("split")
    split.append(Branch(header))
    latch.replace_successor(header, split)
    for phi in header.phis():
        phi.replace_incoming_block(latch, split)
    fresh = LoopInfo.of(func)
    assert fresh is not forest
    assert split in fresh.loop_for_header(header).blocks
    assert LoopInfo.of(func) is fresh


def test_simplify_cfg_rebuilds_the_forest():
    func = _lowered()
    forest = LoopInfo.of(func)
    assert simplify_cfg(func) > 0
    fresh = LoopInfo.of(func)
    assert fresh is not forest
    assert fresh.domtree is not forest.domtree
    assert all(loop.blocks <= set(func.blocks) for loop in fresh.loops)
    assert len(fresh.loops) == len(forest.loops) == 2


def test_retarget_rebuilds_the_forest():
    """Same blocks, one successor changed: the key sees the edge."""
    func = _lowered()
    forest = LoopInfo.of(func)
    inner = next(loop for loop in forest.loops if loop.depth == 2)
    blocks = list(func.blocks)
    inner.latches[0].replace_successor(inner.header, inner.parent.header)
    assert func.blocks == blocks
    fresh = LoopInfo.of(func)
    assert fresh is not forest
    assert fresh.loop_for_header(inner.header) is None


def test_no_private_forest_in_the_package():
    """``LoopInfo.of`` (through ``cls(func)``) is the only construction
    site: no module of the package calls ``LoopInfo(...)``."""
    package = os.path.dirname(repro.__file__)
    sites = []
    for root, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as handle:
                    tree = ast.parse(handle.read(), path)
                sites.extend(
                    os.path.relpath(path, package)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and "LoopInfo" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))
                )
    assert sites == []
