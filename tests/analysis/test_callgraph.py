"""Tests for the call graph analysis."""

import pytest

from repro.analysis import CallGraph
from repro.frontend import compile_source


SOURCE = """
int leaf(int x) { return x + 1; }
int middle(int x) { return leaf(x) * 2; }
int recursive(int n) { if (n < 1) return 0; return recursive(n - 1) + 1; }
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int main() { return middle(3) + recursive(4) + even(6); }
"""


@pytest.fixture(scope="module")
def callgraph():
    module = compile_source(SOURCE)
    return CallGraph(module), module


class TestCallGraph:
    def test_direct_edges(self, callgraph):
        cg, module = callgraph
        main = module.get_function("main")
        names = {f.name for f in cg.callees[main]}
        assert names == {"middle", "recursive", "even"}

    def test_callers(self, callgraph):
        cg, module = callgraph
        leaf = module.get_function("leaf")
        assert {f.name for f in cg.callers[leaf]} == {"middle"}

    def test_self_recursion(self, callgraph):
        cg, module = callgraph
        assert cg.is_recursive(module.get_function("recursive"))
        assert not cg.is_recursive(module.get_function("leaf"))
        assert not cg.is_recursive(module.get_function("main"))

    def test_mutual_recursion(self, callgraph):
        cg, module = callgraph
        assert cg.is_recursive(module.get_function("even"))
        assert cg.is_recursive(module.get_function("odd"))

    def test_topological_order_callees_first(self, callgraph):
        cg, module = callgraph
        order = cg.topological_order()
        position = {f.name: i for i, f in enumerate(order)}
        assert position["leaf"] < position["middle"]
        assert position["middle"] < position["main"]

    def test_program_executes(self):
        from repro.interp import Interpreter

        module = compile_source(SOURCE)
        assert Interpreter(module).run("main") == 8 + 4 + 1
