"""Tests for natural-loop detection, SESE regions, PST, and wPST."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_source
from repro.analysis import (
    LoopInfo,
    ProgramStructureTree,
    WPST,
    find_sese_regions,
)


NESTED_LOOPS = """
float A[10][10];
void f(int n) {
  outer: for (int i = 0; i < n; i++) {
    inner: for (int j = 0; j < n; j++) {
      A[i][j] = (float)(i * j);
    }
  }
}
"""


class TestLoopInfo:
    def test_nest_structure(self):
        module = compile_source(NESTED_LOOPS, optimize=False)
        info = LoopInfo(module.get_function("f"))
        assert len(info.loops) == 2
        outer = next(l for l in info.loops if l.name == "outer")
        inner = next(l for l in info.loops if l.name == "inner")
        assert inner.parent is outer
        assert inner in outer.children
        assert outer.depth == 1 and inner.depth == 2
        assert inner.is_innermost and not outer.is_innermost

    def test_blocks_containment(self):
        module = compile_source(NESTED_LOOPS, optimize=False)
        info = LoopInfo(module.get_function("f"))
        outer = next(l for l in info.loops if l.name == "outer")
        inner = next(l for l in info.loops if l.name == "inner")
        assert inner.blocks < outer.blocks

    def test_induction_phi_and_trip_count(self):
        module = compile_source(
            "void f() { for (int i = 2; i < 20; i += 3) {} }", optimize=False
        )
        info = LoopInfo(module.get_function("f"))
        loop = info.loops[0]
        assert loop.induction_phi() is not None
        assert loop.trip_count_estimate() == 6  # i = 2,5,8,11,14,17

    def test_trip_count_unknown_for_symbolic_bound(self):
        module = compile_source(
            "void f(int n) { for (int i = 0; i < n; i++) {} }", optimize=False
        )
        info = LoopInfo(module.get_function("f"))
        assert info.loops[0].trip_count_estimate() is None

    def test_preheader_and_latch(self):
        module = compile_source(NESTED_LOOPS, optimize=False)
        info = LoopInfo(module.get_function("f"))
        outer = next(l for l in info.loops if l.name == "outer")
        assert outer.preheader() is not None
        assert len(outer.latches) == 1

    def test_innermost_lookup(self):
        module = compile_source(NESTED_LOOPS, optimize=False)
        func = module.get_function("f")
        info = LoopInfo(func)
        inner = next(l for l in info.loops if l.name == "inner")
        body = func.block_by_name("inner.body")
        assert info.innermost_loop(body) is inner

    def test_while_loop_detected(self):
        module = compile_source(
            "int f(int n) { int i = 0; while (i < n) i++; return i; }",
            optimize=False,
        )
        info = LoopInfo(module.get_function("f"))
        assert len(info.loops) == 1


class TestRegions:
    def test_loop_is_sese_region(self):
        module = compile_source(NESTED_LOOPS, optimize=False)
        regions = find_sese_regions(module.get_function("f"))
        names = {r.name for r in regions}
        assert "region:outer" in names
        assert "region:inner" in names

    def test_if_region(self):
        module = compile_source(
            "int f(int a) { int x = 0; if (a > 0) { x = 1; } else { x = 2; } return x; }",
            optimize=False,
        )
        regions = find_sese_regions(module.get_function("f"))
        assert regions, "conditional should produce a SESE region"

    def test_regions_are_laminar(self):
        module = compile_source(NESTED_LOOPS, optimize=False)
        regions = find_sese_regions(module.get_function("f"))
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                overlap = a.blocks & b.blocks
                assert (
                    not overlap
                    or overlap == a.blocks
                    or overlap == b.blocks
                ), f"{a.name} and {b.name} overlap without nesting"

    def test_region_exit_not_in_blocks(self):
        module = compile_source(NESTED_LOOPS, optimize=False)
        for region in find_sese_regions(module.get_function("f")):
            assert region.exit not in region.blocks

    def test_single_entry_property(self):
        """No edge from outside targets a non-entry block."""
        module = compile_source(NESTED_LOOPS, optimize=False)
        func = module.get_function("f")
        for region in find_sese_regions(func):
            for block in func.blocks:
                if block in region.blocks:
                    continue
                for succ in block.successors:
                    if succ in region.blocks:
                        assert succ is region.entry


class TestPST:
    def test_bb_leaves_cover_all_blocks(self):
        module = compile_source(NESTED_LOOPS, optimize=False)
        func = module.get_function("f")
        pst = ProgramStructureTree(func)
        leaf_blocks = {r.entry for r in pst.bb_regions}
        assert leaf_blocks == set(func.blocks)

    def test_nesting(self):
        module = compile_source(NESTED_LOOPS, optimize=False)
        pst = ProgramStructureTree(module.get_function("f"))
        inner = next(
            r for r in pst.ctrl_regions
            if r.name == "region:inner" and r.parent is not None
        )
        chain = []
        node = inner
        while node is not None:
            chain.append(node.name)
            node = node.parent
        assert any("outer" in n for n in chain)

    def test_dump_is_textual(self):
        module = compile_source(NESTED_LOOPS, optimize=False)
        pst = ProgramStructureTree(module.get_function("f"))
        text = pst.dump()
        assert "region:" in text and "bb:" in text


class TestWPST:
    def test_root_and_function_vertices(self, fig2_module):
        wpst = WPST(fig2_module)
        assert wpst.root.kind == "root"
        kinds = {child.kind for child in wpst.root.children}
        assert kinds == {"function"}
        assert set(wpst.function_nodes) == {
            "initdata", "func0", "func1", "main"
        }

    def test_region_vertices_are_candidates(self, fig2_module):
        wpst = WPST(fig2_module)
        for node in wpst.region_vertices():
            assert node.kind in ("bb", "ctrl-flow")
            assert node.is_region
            assert node.region is not None

    def test_fig2_loops_present(self, fig2_module):
        wpst = WPST(fig2_module)
        names = {n.name for n in wpst.ctrl_flow_vertices()}
        assert "region:linear" in names
        assert "region:outer" in names
        assert "region:dot_product" in names

    def test_tree_parents_consistent(self, fig2_module):
        wpst = WPST(fig2_module)
        for node in wpst.root.walk():
            for child in node.children:
                assert child.parent is node

    def test_no_region_shared_between_vertices(self, fig2_module):
        wpst = WPST(fig2_module)
        regions = [id(n.region) for n in wpst.region_vertices()]
        assert len(regions) == len(set(regions))

    def test_sibling_subtree_regions_disjoint(self, fig2_module):
        """The DP's ⊗ requires sibling subtrees to not share blocks."""
        wpst = WPST(fig2_module)
        for node in wpst.root.walk():
            children = [c for c in node.children if c.is_region]
            for i, a in enumerate(children):
                for b in children[i + 1:]:
                    assert not (a.region.blocks & b.region.blocks)
