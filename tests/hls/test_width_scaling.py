"""Width-scaled operator characterization and DFG width plumbing.

Property tests pin the contract the bitwidth analysis relies on: area is
monotone in width for every resource class, the legacy 32/64-bit anchors
are reproduced exactly, and delay (hence scheduling) is invariant at or
below 32 bits. Unit tests cover the ``DFGNode.bits`` fallback for nodes
whose type does not directly carry a datapath width.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_source
from repro.hls import DEFAULT_TECHLIB, DFG
from repro.hls.techlib import (
    _DELAY_FACTOR_64,
    _OPS,
    _QUADRATIC_RESOURCES,
    _WIDTH_FACTOR_64,
)
from repro.ir import (
    ArrayType,
    Cast,
    Constant,
    F32,
    I8,
    I32,
    ICmp,
    IRBuilder,
    Load,
    Module,
    Store,
)

RESOURCES = sorted(_OPS)
widths = st.integers(min_value=1, max_value=64)


@given(st.sampled_from(RESOURCES), widths, widths)
@settings(max_examples=300, deadline=None)
def test_area_monotone_in_width(resource, a, b):
    if a > b:
        a, b = b, a
    assert DEFAULT_TECHLIB.area(resource, a) <= DEFAULT_TECHLIB.area(
        resource, b
    )


@pytest.mark.parametrize("resource", RESOURCES)
def test_area_nondecreasing_at_every_width(resource):
    """Exhaustive over widths 1-64: the merge driver's saving bound prices
    a matched pair at its narrower member, which needs exactly this."""
    areas = [DEFAULT_TECHLIB.area(resource, bits) for bits in range(1, 65)]
    assert areas == sorted(areas)


@given(st.sampled_from(RESOURCES), widths)
@settings(max_examples=300, deadline=None)
def test_area_positive_and_bounded_by_64bit(resource, bits):
    base = _OPS[resource].area_um2
    area = DEFAULT_TECHLIB.area(resource, bits)
    assert 0 <= area <= base * _WIDTH_FACTOR_64 + 1e-9
    if base > 0:
        assert area > 0


@pytest.mark.parametrize("resource", RESOURCES)
def test_exact_legacy_anchors(resource):
    base = _OPS[resource]
    # 32 bits returns the characterization entry itself, bit-exact.
    assert DEFAULT_TECHLIB.op(resource, 32) is base
    info64 = DEFAULT_TECHLIB.op(resource, 64)
    assert info64.area_um2 == pytest.approx(base.area_um2 * _WIDTH_FACTOR_64)
    assert info64.delay_ns == pytest.approx(base.delay_ns * _DELAY_FACTOR_64)
    assert info64.cycles == base.cycles


@given(st.sampled_from(RESOURCES), st.integers(min_value=1, max_value=32))
@settings(max_examples=300, deadline=None)
def test_delay_invariant_at_or_below_32_bits(resource, bits):
    # Narrowing must never perturb schedules: chaining delay and pipeline
    # latency stay at the 32-bit characterization.
    base = _OPS[resource]
    info = DEFAULT_TECHLIB.op(resource, bits)
    assert info.delay_ns == base.delay_ns
    assert info.cycles == base.cycles


def test_quadratic_resources_shrink_faster():
    # At half width a multiplier keeps ~a quarter of its scaling area, an
    # adder about half (both above the fixed floor).
    lib = DEFAULT_TECHLIB
    mul_ratio = lib.area("mul", 16) / lib.area("mul", 32)
    add_ratio = lib.area("add", 16) / lib.area("add", 32)
    assert mul_ratio < add_ratio < 1.0


def test_width_pinned_classes_do_not_shrink():
    lib = DEFAULT_TECHLIB
    for resource in ("load", "store", "icmp", "fadd", "control"):
        assert lib.area(resource, 8) == lib.area(resource, 32)


def build_mixed_width_function():
    """IR with i8, i1, f32, pointer, and store nodes (mini-C has no
    ``char``, so the i8 trunc is built directly)."""
    module = Module("m")
    func = module.add_function("g", I32, [I32, F32], ["i", "x"])
    entry = func.add_block("entry")
    b = IRBuilder(entry)
    i, x = func.arguments
    narrow = b.trunc(i, I8, "c")
    wide = b.sext(narrow, I32, "wide")
    flag = b.icmp("sgt", i, IRBuilder.const_i32(3), "flag")
    widened = b.cast("zext", flag, I32, "widened")
    total = b.add(wide, widened, "total")
    y = b.fadd(x, Constant(F32, 1.0), "y")
    arr = b.alloca(ArrayType(F32, 8), "arr")
    slot = b.gep(arr, [IRBuilder.const_i32(0), IRBuilder.const_i32(0)], "slot")
    b.store(y, slot)
    b.ret(total)
    return func


class TestDFGNodeBits:
    def dfg(self):
        func = build_mixed_width_function()
        return DFG.from_blocks([func.entry])

    def node(self, predicate):
        return next(n for n in self.dfg().nodes if predicate(n))

    def test_i8_node(self):
        trunc = self.node(
            lambda n: isinstance(n.inst, Cast) and n.inst.opcode == "trunc"
        )
        assert trunc.bits == 8

    def test_i1_node(self):
        cmp = self.node(lambda n: isinstance(n.inst, ICmp))
        assert cmp.bits == 1

    def test_float_node(self):
        fadd = self.node(lambda n: n.resource == "fadd")
        assert fadd.bits == 32

    def test_pointer_producing_node_uses_pointer_width(self):
        gep = self.node(lambda n: n.resource == "gep")
        assert gep.bits == 64  # pointers are 64-bit addresses

    def test_void_store_node_takes_stored_value_width(self):
        store = self.node(lambda n: isinstance(n.inst, Store))
        assert store.bits == 32  # the stored f32's width, not void

    def test_width_override_wins(self):
        func = build_mixed_width_function()
        add = next(
            i for i in func.entry.instructions
            if getattr(i, "opcode", None) == "add"
        )
        dfg = DFG.from_blocks([func.entry], widths={add: 5})
        node = next(n for n in dfg.nodes if n.inst is add)
        assert node.bits == 5

    def test_load_node_uses_loaded_type(self):
        src = "int A[8]; int g(int i) { return A[i]; }"
        module = compile_source(src, optimize=False)
        func = module.get_function("g")
        dfg = DFG.from_blocks([func.entry])
        load = next(n for n in dfg.nodes if isinstance(n.inst, Load))
        assert load.bits == 32
