"""Property tests for the merging engine over random generated DFG pairs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hls import DEFAULT_TECHLIB, DFG
from repro.ir import Constant, F32, I32, IRBuilder, Module, VOID
from repro.merging import (
    MergedUnit,
    estimate_pair_saving,
    match_units,
    merge_pair,
    op_index,
)


@st.composite
def random_unit(draw):
    """A random small datapath DFG mixing float and int arithmetic."""
    module = Module("m")
    func = module.add_function("f", VOID, [F32, F32, I32], ["p", "q", "n"])
    block = func.add_block("entry")
    builder = IRBuilder(block)
    fpool = [func.arguments[0], func.arguments[1], Constant(F32, 2.0)]
    ipool = [func.arguments[2], Constant(I32, 3)]
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            op = draw(st.sampled_from(["fadd", "fsub", "fmul"]))
            lhs = fpool[draw(st.integers(0, len(fpool) - 1))]
            rhs = fpool[draw(st.integers(0, len(fpool) - 1))]
            fpool.append(builder._binop(op, lhs, rhs, ""))
        else:
            op = draw(st.sampled_from(["add", "mul", "and", "xor"]))
            lhs = ipool[draw(st.integers(0, len(ipool) - 1))]
            rhs = ipool[draw(st.integers(0, len(ipool) - 1))]
            ipool.append(builder._binop(op, lhs, rhs, ""))
    builder.ret()
    return DFG.from_blocks([block])


@st.composite
def narrowed_unit(draw):
    """A random unit whose nodes carry random proven widths."""
    dfg = draw(random_unit())
    widths = {}
    for node in dfg.nodes:
        if draw(st.booleans()):
            widths[node.inst] = draw(st.integers(1, 64))
    return DFG.from_blocks([dfg.nodes[0].inst.parent], widths=widths)


def match_dfgs(dfg_a, dfg_b):
    return match_units(op_index(dfg_a), op_index(dfg_b), DEFAULT_TECHLIB)


def fu_area(dfg):
    return op_index(dfg).fu_area(DEFAULT_TECHLIB)


@given(random_unit(), random_unit())
@settings(max_examples=60, deadline=None)
def test_match_never_pairs_across_resources(dfg_a, dfg_b):
    match = match_dfgs(dfg_a, dfg_b)
    pairs = [(dfg_a.nodes[i], dfg_b.nodes[j]) for i, j in match.positions]
    for node_a, node_b in pairs:
        assert node_a.resource == node_b.resource
    # Matched sets are injective on both sides.
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    assert len(lefts) == len(set(map(id, lefts)))
    assert len(rights) == len(set(map(id, rights)))


@given(random_unit(), random_unit())
@settings(max_examples=60, deadline=None)
def test_shared_area_bounded_by_smaller_unit(dfg_a, dfg_b):
    match = match_dfgs(dfg_a, dfg_b)
    bound = min(fu_area(dfg_a), fu_area(dfg_b))
    assert match.shared_area <= bound + 1e-9


@given(random_unit(), random_unit())
@settings(max_examples=60, deadline=None)
def test_merge_conserves_area_accounting(dfg_a, dfg_b):
    """merged = a + b - saving holds exactly for one merge step."""
    a = MergedUnit("a", dfg_a, owner=0, member_names=["a"])
    b = MergedUnit("b", dfg_b, owner=1, member_names=["b"])
    saving, match = estimate_pair_saving(a, b, DEFAULT_TECHLIB)
    merged = merge_pair(a, b, DEFAULT_TECHLIB, match)
    total_before = a.total_area(DEFAULT_TECHLIB) + b.total_area(DEFAULT_TECHLIB)
    assert merged.total_area(DEFAULT_TECHLIB) == pytest.approx(
        total_before - saving
    )
    assert len(merged.dfg.nodes) == (
        len(dfg_a.nodes) + len(dfg_b.nodes) - len(match.positions)
    )


@given(random_unit())
@settings(max_examples=40, deadline=None)
def test_self_merge_is_full_overlap(dfg):
    """Merging a unit with a structural copy of itself shares everything."""
    import copy

    clone = dfg.replicate(1)
    match = match_dfgs(dfg, clone)
    assert len(match.positions) == len(dfg.nodes)
    assert match.shared_area == pytest.approx(fu_area(dfg))


def _match_facts(match):
    return (
        match.positions,
        match.shared_area,
        match.mux_area,
        match.config_bits,
        match.width_glue_area,
        match.width_recovered_area,
    )


@given(random_unit(), random_unit(), st.lists(random_unit(), max_size=3))
@settings(max_examples=40, deadline=None)
def test_reused_op_index_gives_the_first_match(dfg_a, dfg_b, others):
    """A DFG's op-key index is built on its first match and reused; matching
    it against other units in either role never changes a later match."""
    first = _match_facts(match_dfgs(dfg_a, dfg_b))
    for other in others + [dfg_a, dfg_b]:
        match_dfgs(dfg_a, other)
        match_dfgs(other, dfg_a)
        match_dfgs(other, dfg_b)
        match_dfgs(dfg_b, other)
    assert _match_facts(match_dfgs(dfg_a, dfg_b)) == first


@given(narrowed_unit(), narrowed_unit())
@settings(max_examples=60, deadline=None)
def test_merged_index_is_derived_exactly(dfg_a, dfg_b):
    """A merged unit's positional form, derived from its members' forms,
    equals the form rebuilt from the DFG it builds on first read,
    predecessor positions and origins included."""
    a = MergedUnit("a", dfg_a, owner=0, member_names=["a"])
    b = MergedUnit("b", dfg_b, owner=1, member_names=["b"])
    merged = merge_pair(a, b, DEFAULT_TECHLIB)
    assert "dfg" not in vars(merged)  # no nodes until the DFG is read
    derived, rebuilt = merged.index, op_index(merged.dfg)
    assert derived is not rebuilt and merged.dfg is merged.dfg
    assert [getattr(derived, field) for field in _FIELDS] == [
        getattr(rebuilt, field) for field in _FIELDS]


_FIELDS = ("keys", "bits", "preds", "order_preds", "origins", "by_key")
