"""Tests for CFG utilities and dominator/post-dominator trees.

Includes a hypothesis property test comparing the Cooper-Harvey-Kennedy
implementation against a brute-force dominance definition on random CFGs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import Branch, CondBranch, IRBuilder, Module, Return, VOID, I32
from repro.analysis import (
    dominator_tree,
    exit_blocks,
    postdominator_tree,
    predecessor_map,
    reachable_blocks,
    reverse_postorder,
)


def build_diamond():
    module = Module("m")
    func = module.add_function("f", VOID, [I32])
    entry = func.add_block("entry")
    left = func.add_block("left")
    right = func.add_block("right")
    merge = func.add_block("merge")
    b = IRBuilder(entry)
    cond = b.icmp("sgt", func.arguments[0], b.const_i32(0))
    b.cond_br(cond, left, right)
    IRBuilder(left).br(merge)
    IRBuilder(right).br(merge)
    IRBuilder(merge).ret()
    return func


def build_loop():
    module = Module("m")
    func = module.add_function("f", VOID, [I32])
    entry = func.add_block("entry")
    header = func.add_block("header")
    body = func.add_block("body")
    exit_ = func.add_block("exit")
    b = IRBuilder(entry)
    b.br(header)
    b.position_at_end(header)
    cond = b.icmp("sgt", func.arguments[0], b.const_i32(0))
    b.cond_br(cond, body, exit_)
    IRBuilder(body).br(header)
    IRBuilder(exit_).ret()
    return func


class TestCFG:
    def test_reachable(self):
        func = build_diamond()
        assert reachable_blocks(func) == set(func.blocks)

    def test_predecessors(self):
        func = build_diamond()
        preds = predecessor_map(func)
        merge = func.block_by_name("merge")
        assert {b.name for b in preds[merge]} == {"left", "right"}

    def test_rpo_entry_first(self):
        func = build_loop()
        order = reverse_postorder(func)
        assert order[0].name == "entry"
        index = {b: i for i, b in enumerate(order)}
        # header precedes body and exit
        assert index[func.block_by_name("header")] < index[func.block_by_name("body")]

    def test_exit_blocks(self):
        func = build_diamond()
        assert [b.name for b in exit_blocks(func)] == ["merge"]


class TestDominators:
    def test_diamond(self):
        func = build_diamond()
        dom = dominator_tree(func)
        entry = func.block_by_name("entry")
        merge = func.block_by_name("merge")
        left = func.block_by_name("left")
        assert dom.dominates(entry, merge)
        assert not dom.dominates(left, merge)
        assert dom.idom[merge] is entry

    def test_loop(self):
        func = build_loop()
        dom = dominator_tree(func)
        header = func.block_by_name("header")
        body = func.block_by_name("body")
        assert dom.dominates(header, body)
        assert dom.idom[body] is header

    def test_postdominators_diamond(self):
        func = build_diamond()
        pdom = postdominator_tree(func)
        entry = func.block_by_name("entry")
        merge = func.block_by_name("merge")
        assert pdom.dominates(merge, entry)
        assert not pdom.dominates(func.block_by_name("left"), entry)

    def test_postdominators_multiple_returns(self):
        """Regression: multi-return functions must not hang (virtual exit)."""
        module = Module("m")
        func = module.add_function("f", I32, [I32])
        entry = func.add_block("entry")
        a = func.add_block("a")
        c = func.add_block("b")
        b = IRBuilder(entry)
        cond = b.icmp("sgt", func.arguments[0], b.const_i32(0))
        b.cond_br(cond, a, c)
        IRBuilder(a).ret(b.const_i32(1))
        IRBuilder(c).ret(b.const_i32(2))
        pdom = postdominator_tree(func)
        # Neither return post-dominates the entry (they're alternatives).
        assert not pdom.dominates(a, entry)
        assert not pdom.dominates(c, entry)

    def test_depth_and_children(self):
        func = build_loop()
        dom = dominator_tree(func)
        entry = func.block_by_name("entry")
        header = func.block_by_name("header")
        assert dom.depth(entry) == 0
        assert dom.depth(header) == 1
        assert header in dom.children(entry)


# -- Property test: CHK dominators vs brute force on random CFGs ----------------


def random_cfg(edges_spec, num_blocks):
    """Build a function whose CFG follows the (i -> j) edge list."""
    module = Module("m")
    func = module.add_function("f", VOID, [I32])
    blocks = [func.add_block(f"b{i}") for i in range(num_blocks)]
    b = IRBuilder()
    for i, block in enumerate(blocks):
        targets = sorted({j for (src, j) in edges_spec if src == i})
        b.position_at_end(block)
        if not targets:
            b.ret()
        elif len(targets) == 1:
            b.br(blocks[targets[0]])
        else:
            cond = b.icmp("sgt", func.arguments[0], b.const_i32(0))
            b.cond_br(cond, blocks[targets[0]], blocks[targets[1]])
    return func, blocks


def brute_force_dominates(func, a, target) -> bool:
    """a dominates target iff removing a makes target unreachable."""
    if a is target:
        return True
    seen = set()
    stack = [func.entry]
    while stack:
        block = stack.pop()
        if block in seen or block is a:
            continue
        seen.add(block)
        stack.extend(block.successors)
    return target not in seen


@given(
    num_blocks=st.integers(min_value=2, max_value=8),
    edge_data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_dominators_match_brute_force(num_blocks, edge_data):
    edges_spec = edge_data.draw(
        st.lists(
            st.tuples(
                st.integers(0, num_blocks - 1), st.integers(0, num_blocks - 1)
            ),
            max_size=num_blocks * 2,
        )
    )
    func, blocks = random_cfg(edges_spec, num_blocks)
    dom = dominator_tree(func)
    reachable = reachable_blocks(func)
    for a in blocks:
        for target in blocks:
            if a not in reachable or target not in reachable:
                continue
            assert dom.dominates(a, target) == brute_force_dominates(
                func, a, target
            ), f"mismatch {a.name} dom {target.name}"
