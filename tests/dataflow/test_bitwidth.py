"""Bitwidth-analysis tests: KnownBits algebra, interval cross-refinement,
loop-carried facts, demanded-bits propagation, and the proven-width meet."""

from repro.dataflow import (
    Interval,
    KnownBits,
    ModuleBitwidthAnalysis,
    ModuleIntervalAnalysis,
    demanded_truncate,
)
from repro.frontend import compile_source
from repro.ir import BinaryOp, ICmp, Phi


def kb(bits, zeros=0, ones=0):
    return KnownBits(bits, zeros, ones)


class TestKnownBitsAlgebra:
    def test_constant_and_check(self):
        c = KnownBits.constant(0b1010, 8)
        assert c.is_constant() and c.constant_value() == 0b1010
        assert c.check(0b1010) and not c.check(0b1011)

    def test_constant_negative_roundtrip(self):
        c = KnownBits.constant(-1, 32)
        assert c.constant_value() == -1
        assert c.check(-1)

    def test_bitwise_logic(self):
        a = KnownBits.constant(0b1100, 4)
        top = KnownBits.top(4)
        anded = a.band(top)
        # Known zeros of a force result zeros even against ⊤.
        assert anded.zeros & 0b0011 == 0b0011
        ored = a.bor(top)
        assert ored.ones & 0b1100 == 0b1100
        assert a.bnot().constant_value() is not None

    def test_xor_tracks_shared_known(self):
        a = KnownBits.constant(0b0110, 4)
        b = KnownBits.constant(0b0011, 4)
        assert a.bxor(b).constant_value() == 0b0101

    def test_ripple_carry_add_is_exact(self):
        # 0b??10 + 0b0001: low two bits fully determined (10 + 01 = 11),
        # carry cannot reach bit 1, so bits 0..1 are known "11".
        a = kb(4, zeros=0b0001, ones=0b0010)
        b = KnownBits.constant(1, 4)
        result = a.add(b)
        assert result._bit(0) == 1 and result._bit(1) == 1

    def test_add_parity_preserved(self):
        even_a = kb(8, zeros=0b1)   # bit0 known zero
        even_b = kb(8, zeros=0b1)
        assert even_a.add(even_b)._bit(0) == 0

    def test_sub_and_neg(self):
        a = KnownBits.constant(5, 8)
        b = KnownBits.constant(3, 8)
        assert a.sub(b).constant_value() == 2
        assert b.neg().constant_value() == -3

    def test_mul_constant_folds(self):
        a = KnownBits.constant(6, 16)
        b = KnownBits.constant(7, 16)
        assert a.mul(b).constant_value() == 42

    def test_mul_trailing_zeros_add(self):
        a = kb(16, zeros=0b11)   # multiple of 4
        b = kb(16, zeros=0b1)    # even
        assert a.mul(b).trailing_zeros() >= 3

    def test_shl_injects_zeros(self):
        a = KnownBits.top(8)
        shifted = a.shl(KnownBits.constant(3, 8))
        assert shifted.trailing_zeros() >= 3

    def test_shr_replicates_sign(self):
        # Known-negative value: arithmetic shr keeps leading ones.
        a = kb(8, ones=0x80)
        shifted = a.shr(KnownBits.constant(2, 8))
        assert shifted._bit(7) == 1 and shifted._bit(6) == 1

    def test_shift_amount_masked_to_six_bits(self):
        a = KnownBits.constant(1, 32)
        # amount 64 & 63 == 0: identity shift.
        assert a.shl(KnownBits.constant(64, 32)).constant_value() == 1

    def test_casts(self):
        a = KnownBits.constant(0x1F0, 16)
        assert a.trunc_to(8).constant_value() is not None
        assert a.zext_to(32).leading_zeros() >= 16
        neg = KnownBits.constant(-2, 8)
        assert neg.sext_to(16).constant_value() == -2

    def test_i1_sext_is_zext(self):
        one = KnownBits.constant(1, 1)
        assert one.sext_to(32).constant_value() == 1

    def test_join_keeps_agreement_only(self):
        a = KnownBits.constant(0b0101, 4)
        b = KnownBits.constant(0b0111, 4)
        joined = a.join(b)
        assert joined._bit(0) == 1 and joined._bit(2) == 1
        assert joined._bit(1) is None
        assert joined._bit(3) == 0

    def test_refine_unions_masks(self):
        low = kb(8, zeros=0x0F)
        high = kb(8, zeros=0xF0)
        assert low.refine(high).leading_zeros() == 8

    def test_significant_bits(self):
        assert kb(32, zeros=~0x7F).significant_bits() == 7
        # Leading known ones collapse to one replicated sign bit.
        assert kb(32, ones=~0xFF & 0xFFFFFFFF).significant_bits() == 9
        assert KnownBits.top(32).significant_bits() == 32
        assert KnownBits.constant(0, 32).significant_bits() == 1


class TestFromInterval:
    def test_small_nonnegative_range(self):
        got = KnownBits.from_interval(Interval(0, 100), 32)
        assert got.leading_zeros() == 25
        assert got.significant_bits() == 7

    def test_negative_range_pins_leading_ones(self):
        got = KnownBits.from_interval(Interval(-4, -1), 32)
        assert got.leading_ones() >= 29

    def test_sign_crossing_range_is_top(self):
        got = KnownBits.from_interval(Interval(-1, 1), 32)
        assert got.known_mask == 0

    def test_unbounded_nonnegative_pins_sign_bit_only(self):
        # [0, +inf] intersects the type range to [0, 2^31-1]: only the
        # sign bit is shared across the whole range.
        got = KnownBits.from_interval(Interval(0, None), 32)
        assert got.leading_zeros() == 1
        assert got.known_mask == 1 << 31

    def test_singleton_is_constant(self):
        got = KnownBits.from_interval(Interval(12, 12), 8)
        assert got.constant_value() == 12


def module_bitwidth(module):
    return ModuleBitwidthAnalysis(module, ModuleIntervalAnalysis(module))


def analysis_for(source, name="kernel"):
    module = compile_source(source, "t")
    return module_bitwidth(module).for_function(
        module.get_function(name)
    )


class TestKnownBitsPrograms:
    def test_loop_parity_survives_backedge(self):
        source = """
int A[64];
int kernel(int n) {
  for (int i = 0; i < n; i = i + 2) { A[i] = i; }
  return A[0];
}
int main() { return kernel(64); }
"""
        analysis = analysis_for(source)
        phi = next(
            i for i in analysis.func.instructions()
            if isinstance(i, Phi) and i.type.is_int
        )
        # The induction variable starts at 0 and steps by 2: bit 0 stays
        # known-zero through the backedge join.
        assert analysis.known(phi)._bit(0) == 0

    def test_interval_refinement_narrows_induction(self):
        source = """
int A[64];
int kernel(int n) {
  for (int i = 0; i < n; i = i + 1) { A[i] = i; }
  return A[0];
}
int main() { return kernel(64); }
"""
        analysis = analysis_for(source)
        phi = next(
            i for i in analysis.func.instructions()
            if isinstance(i, Phi) and i.type.is_int
        )
        # Seeded n = 64 proves i in [0, 64]: at most 7 significant bits.
        assert analysis.proven_width(phi) <= 7

    def test_icmp_result_is_one_bit(self):
        source = """
int kernel(int n) { return n > 3; }
int main() { return kernel(5); }
"""
        analysis = analysis_for(source)
        cmp = next(
            i for i in analysis.func.instructions() if isinstance(i, ICmp)
        )
        assert analysis.proven_width(cmp) == 1


class TestDemandedBits:
    def masked_source(self):
        return """
int A[4];
int kernel(int a) {
  int x = a * 3;
  int y = x & 255;
  A[0] = y;
  return 0;
}
int main() { return kernel(5); }
"""

    def test_and_constant_limits_demand(self):
        analysis = analysis_for(self.masked_source())
        mul = next(
            i for i in analysis.func.instructions()
            if isinstance(i, BinaryOp) and i.opcode == "mul"
        )
        assert analysis.demanded(mul) == 255
        assert analysis.demanded_width(mul) == 8

    def test_proven_width_uses_demanded_side(self):
        analysis = analysis_for(self.masked_source())
        mul = next(
            i for i in analysis.func.instructions()
            if isinstance(i, BinaryOp) and i.opcode == "mul"
        )
        # Known bits cannot bound a * 3 for unknown a... but only 8 bits
        # are ever observable, so the proven width is 8.
        assert analysis.proven_width(mul) <= 8

    def test_shr_demands_shifted_sources(self):
        source = """
int A[4];
int kernel(int a) {
  A[0] = a >> 4;
  return 0;
}
int main() { return kernel(5); }
"""
        analysis = analysis_for(source)
        arg = analysis.func.arguments[0]
        # Result bits 0..31 come from source bits 4..31 (sign replicated).
        assert analysis.demanded(arg) == 0xFFFFFFF0

    def test_store_roots_full_demand(self):
        source = """
int A[4];
int kernel(int a) { A[0] = a; return 0; }
int main() { return kernel(5); }
"""
        analysis = analysis_for(source)
        arg = analysis.func.arguments[0]
        assert analysis.demanded(arg) == 0xFFFFFFFF

    def test_unobserved_value_demands_nothing(self):
        source = """
int kernel(int a) {
  int dead = a * 17;
  return 1;
}
int main() { return kernel(5); }
"""
        module = compile_source(source, "t", optimize=False)
        analysis = module_bitwidth(module).for_function(
            module.get_function("kernel")
        )
        mul = next(
            (i for i in analysis.func.instructions()
             if isinstance(i, BinaryOp) and i.opcode == "mul"),
            None,
        )
        if mul is not None:  # DCE disabled, the dead multiply survives
            assert analysis.demanded(mul) == 0


class TestDemandedTruncate:
    def test_agrees_on_demanded_bits(self):
        for value in (-7, -1, 0, 1, 127, 128, 255, 1 << 20, -(1 << 20)):
            for demand in (0x1, 0xFF, 0xF0, 0x7FFF):
                got = demanded_truncate(value, demand, 32)
                assert (got ^ value) & demand == 0, (value, demand)

    def test_identity_without_demand_or_at_full_width(self):
        assert demanded_truncate(12345, 0, 32) == 12345
        assert demanded_truncate(-12345, (1 << 32) - 1, 32) == -12345

    def test_sign_extends_above_kept_width(self):
        # demand 0xFF keeps 8 bits; 0x80 sign-extends to -128.
        assert demanded_truncate(0x80, 0xFF, 32) == -128
        assert demanded_truncate(0x7F, 0xFF, 32) == 0x7F


class TestWidthMapAndSummary:
    SOURCE = """
int A[64];
int kernel(int n) {
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s = s + A[i]; }
  return s;
}
int main() { return kernel(64); }
"""

    def test_width_map_covers_int_instructions(self):
        module = compile_source(self.SOURCE, "t")
        bitwidth = module_bitwidth(module)
        func = module.get_function("kernel")
        widths = bitwidth.width_map(func)
        assert widths
        for inst, width in widths.items():
            assert 1 <= width <= inst.type.bits

    def test_function_summary_reports_narrowing(self):
        module = compile_source(self.SOURCE, "t")
        bitwidth = module_bitwidth(module)
        summary = bitwidth.function_summary(module.get_function("kernel"))
        assert summary["narrowed_ops"] > 0
        assert summary["proven_bits"] < summary["type_bits"]
        assert summary["proven_area_um2"] < summary["type_area_um2"]
