"""Width-aware FU matching: integer units merge at the max proven width
with zero-extend glue; float units keep exact width classes."""

import pytest

from repro.frontend import compile_source
from repro.hls import DEFAULT_TECHLIB, DFG
from repro.merging import match_units, op_index

ADD_KERNEL = "int g[8]; void f(int i, int j) { g[0] = i + j; }"


def add_dfg(width):
    module = compile_source(ADD_KERNEL, optimize=False)
    func = module.get_function("f")
    widths = {
        inst: width
        for inst in func.instructions()
        if getattr(inst, "opcode", None) == "add"
    }
    return DFG.from_blocks([func.entry], widths=widths)


def match_dfgs(dfg_a, dfg_b):
    return match_units(op_index(dfg_a), op_index(dfg_b), DEFAULT_TECHLIB)


def matched_nodes(match, dfg_a, dfg_b):
    return [(dfg_a.nodes[i], dfg_b.nodes[j]) for i, j in match.positions]


class TestIntegerWidthMerging:
    def test_mixed_width_adders_share_at_max(self):
        a = add_dfg(11)
        b = add_dfg(14)
        match = match_dfgs(a, b)
        pair = next(
            (na, nb) for na, nb in matched_nodes(match, a, b)
            if na.resource == "add"
        )
        assert {pair[0].bits, pair[1].bits} == {11, 14}
        # The shared unit is priced at 14 bits: the saving is the smaller
        # member's area.
        lib = DEFAULT_TECHLIB
        expected = lib.area("add", 11) + lib.area("add", 14) - lib.area("add", 14)
        add_saving = expected
        assert match.shared_area >= add_saving - 1e-9

    def test_width_glue_charged_for_mixed_pair(self):
        match = match_dfgs(add_dfg(11), add_dfg(14))
        assert match.width_glue_area > 0

    def test_equal_width_pair_needs_no_glue(self):
        match = match_dfgs(add_dfg(14), add_dfg(14))
        assert match.width_glue_area == 0

    def test_width_recovered_area_vs_binary_bucketing(self):
        # Both adders land in the legacy 32-bit bucket, which would have
        # billed a full 32-bit unit; the recovered area is the difference
        # between bucket-width and proven-width pricing.
        match = match_dfgs(add_dfg(11), add_dfg(14))
        lib = DEFAULT_TECHLIB
        recovered = lib.area("add", 32) - lib.area("add", 14)
        assert match.width_recovered_area >= recovered - 1e-9

    def test_cross_bucket_pair_recovers_full_saving(self):
        # 30-bit vs 34-bit: different legacy buckets (32 vs 64), so the
        # binary bucketing could not merge the pair at all and the whole
        # saving is recovered.
        a, b = add_dfg(30), add_dfg(34)
        match = match_dfgs(a, b)
        pair = next(
            (na, nb) for na, nb in matched_nodes(match, a, b)
            if na.resource == "add"
        )
        assert pair is not None
        lib = DEFAULT_TECHLIB
        saved = lib.area("add", 30) + lib.area("add", 34) - lib.area("add", 34)
        assert match.width_recovered_area >= saved - 1e-9

    def test_net_saving_positive_for_narrow_adders(self):
        match = match_dfgs(add_dfg(11), add_dfg(14))
        assert match.net_saving > 0


class TestFloatWidthClasses:
    def test_f32_and_f64_adders_never_merge(self):
        a = compile_source(
            "float g[4]; void f(float p) { g[0] = p + p; }", optimize=False
        )
        b = compile_source(
            "double g[4]; void f(double p) { g[0] = p + p; }", optimize=False
        )
        dfg_a = DFG.from_blocks([a.get_function("f").entry])
        dfg_b = DFG.from_blocks([b.get_function("f").entry])
        match = match_dfgs(dfg_a, dfg_b)
        assert not any(
            na.resource == "fadd"
            for na, _ in matched_nodes(match, dfg_a, dfg_b)
        )
        assert match.width_recovered_area == 0

    def test_same_width_float_adders_do_merge(self):
        module = compile_source(
            "float g[4]; void f(float p) { g[0] = p + p; }", optimize=False
        )
        dfg = DFG.from_blocks([module.get_function("f").entry])
        match = match_dfgs(dfg, dfg)
        assert any(
            na.resource == "fadd" for na, _ in matched_nodes(match, dfg, dfg)
        )


def test_unit_fu_area_respects_node_widths():
    narrow = add_dfg(8)
    wide = add_dfg(32)
    assert op_index(narrow).fu_area(DEFAULT_TECHLIB) < op_index(
        wide).fu_area(DEFAULT_TECHLIB)
