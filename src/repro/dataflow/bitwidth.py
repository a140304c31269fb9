"""Bidirectional bitwidth analysis: known-bits ∧ demanded-bits (HLS narrowing).

Two cooperating analyses prove, per integer SSA value, how many datapath
bits an operator actually needs — the classic HLS bitwidth-minimization
pass (Calyx and HIR treat per-operator width as a first-class IR property
for the same reason):

* **Known bits** (forward, a :class:`~repro.dataflow.framework.EnvDataflow`
  client): per value a :class:`KnownBits` triple of known-zero / known-one
  masks over the value's *unsigned* two's-complement representation.
  Transfer functions mirror the reference interpreter exactly (wrapping
  arithmetic, ``amount & 63`` shifts, arithmetic ``shr``, the ``i1``
  unsigned special case) and are cross-refined with the interval analysis:
  a value proven in ``[0, 100]`` gains 25 known-leading-zero bits at i32.

* **Demanded bits** (backward, an SSA-graph fixpoint): which result bits
  each operator must actually produce.  Full demand is rooted at stores,
  branch conditions, call arguments, return values and address (gep index)
  computations, then propagated through operands (``add`` needs operand
  bits only up to the highest demanded sum bit, ``shl c`` shifts the
  demand down, ...).  Masks only ever grow, so the fixpoint is loop-safe.

Their meet is ``proven_width(v) ≤ v.type.bits``: the narrowest datapath
that provably reproduces every observable behavior.  Consumers: the HLS
area model (``DFGNode`` width overrides), FU merging (max-width matching),
lint rules IR009/AN005, the sanitizer (runtime mask checks) and the
``repro bitwidth`` CLI report.  See ``docs/bitwidth.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import (
    Argument,
    BasicBlock,
    BinaryOp,
    Call,
    Cast,
    CondBranch,
    Constant,
    FCmp,
    Function,
    GetElementPtr,
    ICmp,
    Instruction,
    Module,
    Phi,
    Return,
    Select,
    Store,
    UnaryOp,
    Value,
)
from .framework import EnvDataflow
from .interval import Interval, IntervalAnalysis, ModuleIntervalAnalysis


def _mask(bits: int) -> int:
    return (1 << bits) - 1


def _to_signed(u: int, bits: int) -> int:
    """Unsigned representation → interpreter value (two's complement;
    ``i1`` stays unsigned, matching ``_wrap_int``)."""
    u &= _mask(bits)
    if bits <= 1:
        return u
    sign = 1 << (bits - 1)
    return (u & (sign - 1)) - (u & sign)


class KnownBits:
    """Known-zero / known-one masks over an N-bit unsigned representation.

    Invariant: ``zeros & ones == 0`` and both masks fit in ``bits``.  A bit
    set in neither mask is unknown; ⊤ is both masks empty.  Soundness
    contract (checked at runtime by the sanitizer): for every concrete
    value ``v`` the analysis claims this for, ``u = v & mask`` satisfies
    ``u & zeros == 0`` and ``u & ones == ones``.
    """

    __slots__ = ("bits", "zeros", "ones")

    def __init__(self, bits: int, zeros: int = 0, ones: int = 0):
        m = _mask(bits)
        self.bits = bits
        self.zeros = zeros & m
        self.ones = ones & m

    # Constructors -----------------------------------------------------------

    @staticmethod
    def top(bits: int) -> "KnownBits":
        return KnownBits(bits)

    @staticmethod
    def constant(value: int, bits: int) -> "KnownBits":
        u = value & _mask(bits)
        return KnownBits(bits, ~u, u)

    @staticmethod
    def from_interval(interval: Interval, bits: int) -> "KnownBits":
        """Leading bits pinned by a signed range: when ``[lo, hi]`` stays on
        one side of the sign wrap, the unsigned images of ``lo`` and ``hi``
        share their leading bits and those bits are known (``[0, 100]`` at
        i32 → 25 known-zero leading bits; ``hi < 0`` pins leading ones)."""
        iv = interval.intersect(Interval.of_type(bits))
        if iv.is_bottom or iv.lo is None or iv.hi is None:
            return KnownBits.top(bits)
        lo, hi = iv.lo, iv.hi
        if not (lo >= 0 or hi < 0):
            return KnownBits.top(bits)  # range crosses the sign wrap
        m = _mask(bits)
        ulo, uhi = lo & m, hi & m
        diff = ulo ^ uhi
        known_high = m & ~_mask(diff.bit_length())
        return KnownBits(bits, ~ulo & known_high, ulo & known_high)

    # Bit queries ------------------------------------------------------------

    def _bit(self, i: int) -> Optional[int]:
        if (self.zeros >> i) & 1:
            return 0
        if (self.ones >> i) & 1:
            return 1
        return None

    @property
    def known_mask(self) -> int:
        return self.zeros | self.ones

    def is_constant(self) -> bool:
        return self.known_mask == _mask(self.bits)

    def constant_value(self) -> Optional[int]:
        """The concrete (signed) value when every bit is known."""
        if not self.is_constant():
            return None
        return _to_signed(self.ones, self.bits)

    def check(self, value: int) -> bool:
        """Does a concrete interpreter value satisfy the claimed masks?"""
        u = value & _mask(self.bits)
        return (u & self.zeros) == 0 and (u & self.ones) == self.ones

    def leading_zeros(self) -> int:
        return self.bits - (self.zeros ^ _mask(self.bits)).bit_length()

    def leading_ones(self) -> int:
        return self.bits - (self.ones ^ _mask(self.bits)).bit_length()

    def trailing_zeros(self) -> int:
        return ((self.zeros + 1) & ~self.zeros).bit_length() - 1

    def significant_bits(self) -> int:
        """Datapath bits needed to carry the value: leading known zeros are
        free (zero-extend restores them); N leading known ones collapse to
        one replicated sign bit."""
        lz = self.leading_zeros()
        if lz:
            return max(1, self.bits - lz)
        lo = self.leading_ones()
        if lo:
            return max(1, self.bits - lo + 1)
        return self.bits

    # Lattice ----------------------------------------------------------------

    def join(self, other: "KnownBits") -> "KnownBits":
        """Bits known identical on both paths; ``self`` itself when
        ``other`` knows all of them too."""
        zeros = self.zeros & other.zeros
        ones = self.ones & other.ones
        if zeros == self.zeros and ones == self.ones:
            return self
        return KnownBits(self.bits, zeros, ones)

    def refine(self, other: "KnownBits") -> "KnownBits":
        """Meet of two sound facts about the same value; contradicting bits
        (possible only at unreachable code) are conservatively dropped.
        ``self`` itself when ``other`` adds nothing."""
        zeros = self.zeros | other.zeros
        ones = self.ones | other.ones
        conflict = zeros & ones
        zeros &= ~conflict
        ones &= ~conflict
        if zeros == self.zeros and ones == self.ones:
            return self
        return KnownBits(self.bits, zeros, ones)

    # Transfer functions (mirror repro.interp.interpreter semantics) ---------

    def band(self, other: "KnownBits") -> "KnownBits":
        return KnownBits(
            self.bits, self.zeros | other.zeros, self.ones & other.ones
        )

    def bor(self, other: "KnownBits") -> "KnownBits":
        return KnownBits(
            self.bits, self.zeros & other.zeros, self.ones | other.ones
        )

    def bxor(self, other: "KnownBits") -> "KnownBits":
        known = self.known_mask & other.known_mask
        value = (self.ones ^ other.ones) & known
        return KnownBits(self.bits, known & ~value, value)

    def bnot(self) -> "KnownBits":
        return KnownBits(self.bits, self.ones, self.zeros)

    def _add_carry(
        self, other_zeros: int, other_ones: int, carry: int
    ) -> "KnownBits":
        """Exact ``self + other + carry`` with ``other`` given by its masks
        (LLVM's ``KnownBits::computeForAddCarry``).  The carry into bit i
        is monotone in the operands' low bits, so the largest sum (every
        unknown bit 1) and the smallest (every unknown bit 0) bound it; a
        sum bit is known where both operand bits and that carry are."""
        sum_max = ~self.zeros + ~other_zeros + carry
        sum_min = self.ones + other_ones + carry
        carry_zero = ~(sum_max ^ self.zeros ^ other_zeros)
        carry_one = sum_min ^ self.ones ^ other_ones
        known = (
            (self.zeros | self.ones) & (other_zeros | other_ones)
            & (carry_zero | carry_one)
        )
        return KnownBits(self.bits, ~sum_max & known, sum_min & known)

    def add(self, other: "KnownBits") -> "KnownBits":
        return self._add_carry(other.zeros, other.ones, 0)

    def sub(self, other: "KnownBits") -> "KnownBits":
        """``self + ~other + 1``."""
        return self._add_carry(other.ones, other.zeros, 1)

    def neg(self) -> "KnownBits":
        return KnownBits.constant(0, self.bits).sub(self)

    def mul(self, other: "KnownBits") -> "KnownBits":
        va, vb = self.constant_value(), other.constant_value()
        if va is not None and vb is not None:
            return KnownBits.constant(va * vb, self.bits)
        tz = min(self.bits, self.trailing_zeros() + other.trailing_zeros())
        return KnownBits(self.bits, _mask(tz), 0)

    def shl(self, amount: "KnownBits") -> "KnownBits":
        c = amount.constant_value()
        if c is None:
            return KnownBits.top(self.bits)
        # Amounts outside 0..bits-1 trap at runtime, so any transfer result
        # for them is vacuous; masking keeps the fold total regardless.
        c &= 63
        if c >= self.bits:
            return KnownBits.constant(0, self.bits)
        return KnownBits(
            self.bits, (self.zeros << c) | _mask(c), self.ones << c
        )

    def shr(self, amount: "KnownBits") -> "KnownBits":
        """Arithmetic right shift of the signed value (Python ``>>``)."""
        c = amount.constant_value()
        if c is None:
            return KnownBits.top(self.bits)
        c &= 63
        bits = self.bits
        if bits == 1:
            # An i1 value is unsigned 0/1: any shift yields 0.
            return self if c == 0 else KnownBits.constant(0, 1)
        # Result bits from ``bits - c`` up, past the shifted-in source,
        # copy the sign bit.
        sign = 1 << (bits - 1)
        fill = _mask(bits) ^ _mask(max(0, bits - c))
        return KnownBits(
            bits,
            (self.zeros >> c) | (fill if self.zeros & sign else 0),
            (self.ones >> c) | (fill if self.ones & sign else 0),
        )

    def trunc_to(self, dst_bits: int) -> "KnownBits":
        m = _mask(dst_bits)
        return KnownBits(dst_bits, self.zeros & m, self.ones & m)

    def zext_to(self, dst_bits: int) -> "KnownBits":
        if dst_bits <= self.bits:
            return self.trunc_to(dst_bits)
        high = _mask(dst_bits) ^ _mask(self.bits)
        return KnownBits(dst_bits, self.zeros | high, self.ones)

    def sext_to(self, dst_bits: int) -> "KnownBits":
        if dst_bits <= self.bits:
            return self.trunc_to(dst_bits)
        if self.bits == 1:
            # i1 carries the unsigned value 0/1, so sext == zext here.
            return self.zext_to(dst_bits)
        high = _mask(dst_bits) ^ _mask(self.bits)
        sign = self._bit(self.bits - 1)
        if sign == 0:
            return KnownBits(dst_bits, self.zeros | high, self.ones)
        if sign == 1:
            return KnownBits(dst_bits, self.zeros, self.ones | high)
        return KnownBits(dst_bits, self.zeros, self.ones)

    # Plumbing ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, KnownBits)
            and self.bits == other.bits
            and self.zeros == other.zeros
            and self.ones == other.ones
        )

    def __hash__(self):
        return hash((self.bits, self.zeros, self.ones))

    def __repr__(self):  # pragma: no cover - debugging aid
        digits = []
        for i in range(self.bits - 1, -1, -1):
            bit = self._bit(i)
            digits.append("?" if bit is None else str(bit))
        return f"<KnownBits i{self.bits} {''.join(digits)}>"


class KnownBitsAnalysis(EnvDataflow):
    """Forward known-bits dataflow over one function.

    Optimistic CFG iteration (loop phis first see only the entry edge, so
    facts like "the induction variable stays even" survive the backedge
    join); the per-value lattice has finite height ``2·bits`` so the solver
    converges without widening.  Every structural fact is additionally
    refined with the interval analysis' final range at the definition.
    """

    def __init__(self, func: Function, intervals: IntervalAnalysis):
        super().__init__(func)
        self.intervals = intervals
        #: Per instruction, the bits its final interval pins; the interval
        #: solve is done, so each is computed once, not once per visit.
        self._interval_bits: Dict[Instruction, KnownBits] = {}
        self.solve()

    # Evaluation -------------------------------------------------------------

    def _argument_bits(self, arg: Argument) -> KnownBits:
        seeded = self.intervals.arg_intervals.get(arg)
        if seeded is not None:
            return KnownBits.from_interval(seeded, arg.type.bits)
        return KnownBits.top(arg.type.bits)

    def top(self, value: Value) -> KnownBits:
        return KnownBits.top(value.type.bits)

    def fact_of(self, value: Value, env: Dict) -> KnownBits:
        bits = value.type.bits
        if isinstance(value, Constant):
            return KnownBits.constant(int(value.value), bits)
        found = env.get(value)
        if found is not None:
            return found
        if isinstance(value, Argument):
            return self._argument_bits(value)
        return KnownBits.top(bits)

    def transfer_inst(
        self, inst: Instruction, env: Dict
    ) -> Optional[KnownBits]:
        if not inst.type.is_int:
            return None
        bits = inst.type.bits
        kb = None
        if isinstance(inst, BinaryOp):
            lhs = self.fact_of(inst.lhs, env)
            rhs = self.fact_of(inst.rhs, env)
            kb = self._binary(inst.opcode, lhs, rhs, bits)
        elif isinstance(inst, (ICmp, FCmp)):
            kb = KnownBits.top(1)
        elif isinstance(inst, Select):
            kb = self.fact_of(inst.operands[1], env).join(
                self.fact_of(inst.operands[2], env)
            )
        elif isinstance(inst, Cast):
            if inst.opcode in ("sext", "zext", "trunc"):
                inner = self.fact_of(inst.operands[0], env)
                if inst.opcode == "sext":
                    kb = inner.sext_to(bits)
                elif inst.opcode == "zext":
                    kb = inner.zext_to(bits)
                else:
                    kb = inner.trunc_to(bits)
            else:  # fptosi
                kb = KnownBits.top(bits)
        elif isinstance(inst, UnaryOp):
            inner = self.fact_of(inst.operands[0], env)
            kb = inner.neg() if inst.opcode == "neg" else inner.bnot()
        else:
            # Loads, calls and anything unhandled: only the interval helps.
            kb = KnownBits.top(bits)
        pinned = self._interval_bits.get(inst)
        if pinned is None:
            pinned = self._interval_bits[inst] = KnownBits.from_interval(
                self.intervals.interval_of(inst), bits
            )
        return kb.refine(pinned)

    @staticmethod
    def _binary(
        opcode: str, lhs: KnownBits, rhs: KnownBits, bits: int
    ) -> KnownBits:
        if opcode == "add":
            return lhs.add(rhs)
        if opcode == "sub":
            return lhs.sub(rhs)
        if opcode == "mul":
            return lhs.mul(rhs)
        if opcode == "and":
            return lhs.band(rhs)
        if opcode == "or":
            return lhs.bor(rhs)
        if opcode == "xor":
            return lhs.bxor(rhs)
        if opcode == "shl":
            return lhs.shl(rhs)
        if opcode == "shr":
            return lhs.shr(rhs)
        return KnownBits.top(bits)  # div, rem: interval refinement only

    # Branch refinement -----------------------------------------------------

    def edge_refinement(self, pred: BasicBlock, succ: BasicBlock):
        """The operands of ``icmp eq x, y`` on the taken edge of a two-way
        branch: there both sides carry the meet of their masks (most useful
        when one is a constant)."""
        term = pred.terminator
        if not isinstance(term, CondBranch):
            return None
        cond = term.condition
        if (
            isinstance(cond, ICmp)
            and cond.predicate == "eq"
            and term.true_target is not term.false_target
            and succ is term.true_target
            and cond.operands[0].type.is_int
        ):
            return cond.operands[0], cond.operands[1]
        return None

    def refine_edge(self, refinement, env: Dict) -> Dict[Value, KnownBits]:
        lhs_v, rhs_v = refinement
        meet = self.fact_of(lhs_v, env).refine(self.fact_of(rhs_v, env))
        overlay: Dict[Value, KnownBits] = {}
        if not isinstance(lhs_v, Constant):
            overlay[lhs_v] = meet
        if not isinstance(rhs_v, Constant):
            overlay[rhs_v] = meet
        return overlay

    # Queries ----------------------------------------------------------------

    def known_of(self, value: Value) -> KnownBits:
        if isinstance(value, Constant):
            return KnownBits.constant(int(value.value), value.type.bits)
        if isinstance(value, Instruction):
            # The fact at the definition: its block's final out-state.
            env = self.out_states.get(value.parent)
            found = env.get(value) if env else None
            if found is not None:
                return found
        elif isinstance(value, Argument):
            return self._argument_bits(value)
        return KnownBits.top(value.type.bits)


class DemandedBitsAnalysis:
    """Backward demanded-bits over the SSA def-use graph.

    ``demanded[v]`` is the union, over every (transitive) use of ``v``, of
    the bits of ``v`` that can influence an observable effect — a store, a
    branch condition, a call argument, a return value or an address
    computation.  Demands only ever grow and each mask is bounded by the
    type mask, so the worklist fixpoint terminates through loops (phi
    cycles) without any special casing.
    """

    def __init__(self, func: Function):
        self.func = func
        self.demanded: Dict[Value, int] = {}
        self._worklist: List[Value] = []
        self._solve()

    # Demand plumbing --------------------------------------------------------

    def _demand(self, value: Value, mask: int) -> None:
        if isinstance(value, Constant) or not value.type.is_int:
            return
        mask &= _mask(value.type.bits)
        current = self.demanded.get(value, 0)
        merged = current | mask
        if merged != current:
            self.demanded[value] = merged
            self._worklist.append(value)

    def _solve(self) -> None:
        for inst in self.func.instructions():
            self._root_demands(inst)
        while self._worklist:
            value = self._worklist.pop()
            if isinstance(value, Instruction):
                self._propagate(value)

    def _root_demands(self, inst: Instruction) -> None:
        """Unconditional demand sources: observable effects need every bit
        of the values feeding them."""
        full = -1
        if isinstance(inst, Store):
            self._demand(inst.value, full)
        elif isinstance(inst, CondBranch):
            self._demand(inst.condition, full)
        elif isinstance(inst, Call):
            for op in inst.operands:
                self._demand(op, full)
        elif isinstance(inst, Return):
            if inst.operands:
                self._demand(inst.operands[0], full)
        elif isinstance(inst, GetElementPtr):
            for index in inst.indices:
                self._demand(index, full)
        elif isinstance(inst, Cast) and inst.opcode == "sitofp":
            self._demand(inst.operands[0], full)

    def _propagate(self, inst: Instruction) -> None:
        """Push ``demanded[inst]`` back into the instruction's operands."""
        demand = self.demanded.get(inst, 0)
        if demand == 0:
            return
        if isinstance(inst, BinaryOp):
            self._propagate_binary(inst, demand)
        elif isinstance(inst, ICmp):
            # Any operand bit can flip a comparison.
            self._demand(inst.operands[0], -1)
            self._demand(inst.operands[1], -1)
        elif isinstance(inst, Select):
            self._demand(inst.operands[0], -1)
            self._demand(inst.operands[1], demand)
            self._demand(inst.operands[2], demand)
        elif isinstance(inst, Phi):
            for value, _pred in inst.incoming():
                self._demand(value, demand)
        elif isinstance(inst, UnaryOp):
            if inst.opcode == "not":
                self._demand(inst.operands[0], demand)
            else:  # neg = 0 - v: borrow ripples upward only
                self._demand(inst.operands[0], _low_demand(demand))
        elif isinstance(inst, Cast):
            self._propagate_cast(inst, demand)

    def _propagate_binary(self, inst: BinaryOp, demand: int) -> None:
        opcode = inst.opcode
        lhs, rhs = inst.lhs, inst.rhs
        if opcode in ("add", "sub", "mul"):
            # Result bit i depends on operand bits ≤ i (carries go upward).
            self._demand(lhs, _low_demand(demand))
            self._demand(rhs, _low_demand(demand))
        elif opcode == "and":
            self._demand(lhs, self._masked_by_constant(demand, rhs, invert=False))
            self._demand(rhs, self._masked_by_constant(demand, lhs, invert=False))
        elif opcode == "or":
            self._demand(lhs, self._masked_by_constant(demand, rhs, invert=True))
            self._demand(rhs, self._masked_by_constant(demand, lhs, invert=True))
        elif opcode == "xor":
            self._demand(lhs, demand)
            self._demand(rhs, demand)
        elif opcode in ("shl", "shr"):
            bits = inst.type.bits
            amount = self._shift_amount(rhs)
            if amount is None:
                if opcode == "shl":
                    # shl only moves bits upward: sources ≤ msb(demand).
                    self._demand(lhs, _low_demand(demand))
                else:
                    # shr only moves bits downward: sources ≥ lsb(demand).
                    lsb = (demand & -demand).bit_length() - 1
                    self._demand(lhs, _mask(bits) ^ _mask(lsb))
            elif opcode == "shl":
                if amount < bits:
                    self._demand(lhs, demand >> amount)
            else:
                if bits == 1:
                    if amount == 0:
                        self._demand(lhs, demand)
                else:
                    src = 0
                    for i in range(bits):
                        if (demand >> i) & 1:
                            src |= 1 << min(i + amount, bits - 1)
                    self._demand(lhs, src)
            # The shifter reads only the low 6 bits of the amount.
            self._demand(rhs, 63)
        else:  # div, rem: every operand bit matters
            self._demand(lhs, -1)
            self._demand(rhs, -1)

    def _propagate_cast(self, inst: Cast, demand: int) -> None:
        src = inst.operands[0]
        if not src.type.is_int:
            return  # fptosi
        src_bits = src.type.bits
        src_mask = _mask(src_bits)
        if inst.opcode == "trunc":
            self._demand(src, demand & src_mask)
        elif inst.opcode == "zext":
            self._demand(src, demand & src_mask)
        elif inst.opcode == "sext":
            wanted = demand & src_mask
            if src_bits > 1 and demand & ~src_mask:
                wanted |= 1 << (src_bits - 1)  # sign bit fills the high part
            self._demand(src, wanted)

    @staticmethod
    def _shift_amount(value: Value) -> Optional[int]:
        if isinstance(value, Constant) and value.type.is_int:
            return int(value.value) & 63
        return None

    def _masked_by_constant(
        self, demand: int, other: Value, invert: bool
    ) -> int:
        """Demand through ``and``/``or`` with a constant other operand: bits
        the constant forces (0 for and, 1 for or) are not demanded."""
        if isinstance(other, Constant) and other.type.is_int:
            u = int(other.value) & _mask(other.type.bits)
            return demand & (~u if invert else u)
        return demand

    # Queries ----------------------------------------------------------------

    def demanded_of(self, value: Value) -> int:
        return self.demanded.get(value, 0)


def _low_demand(demand: int) -> int:
    """All bits up to the highest demanded one (carry/borrow closure)."""
    return _mask(demand.bit_length())


def demanded_truncate(value: int, demand: int, bits: int) -> int:
    """The value a datapath narrowed to ``msb(demand)+1`` bits would carry:
    low bits preserved, everything above reconstructed by sign-extension.
    Agrees with ``value`` on every demanded bit."""
    width = demand.bit_length()
    if width == 0 or width >= bits:
        return value
    low = value & _mask(width)
    if (low >> (width - 1)) & 1:
        low |= _mask(bits) ^ _mask(width)
    return _to_signed(low, bits)


class BitwidthAnalysis:
    """Per-function meet of known bits and demanded bits."""

    def __init__(self, func: Function, intervals: IntervalAnalysis):
        self.func = func
        self.known_bits = KnownBitsAnalysis(func, intervals)
        self.demanded_bits = DemandedBitsAnalysis(func)

    def known(self, value: Value) -> KnownBits:
        return self.known_bits.known_of(value)

    def demanded(self, value: Value) -> int:
        return self.demanded_bits.demanded_of(value)

    def known_width(self, value: Value) -> int:
        return self.known(value).significant_bits()

    def demanded_width(self, value: Value) -> int:
        return max(1, self.demanded(value).bit_length())

    def proven_width(self, value: Value) -> int:
        """Narrowest sound datapath width: enough bits to represent the
        value (known side) or to cover every bit any observable effect can
        depend on (demanded side), whichever is smaller."""
        bits = value.type.bits
        return max(
            1, min(bits, self.known_width(value), self.demanded_width(value))
        )

    def width_map(self) -> Dict[Instruction, int]:
        """Proven widths for every integer instruction (DFG width overrides)."""
        widths: Dict[Instruction, int] = {}
        for inst in self.func.instructions():
            if inst.type.is_int:
                widths[inst] = self.proven_width(inst)
        return widths


class ModuleBitwidthAnalysis:
    """Bitwidth analyses for every defined function, sharing one module
    interval analysis for cross-refinement."""

    def __init__(self, module: Module, intervals: ModuleIntervalAnalysis):
        self.module = module
        self.intervals = intervals
        self._analyses: Dict[Function, BitwidthAnalysis] = {}

    def for_function(self, func: Function) -> BitwidthAnalysis:
        found = self._analyses.get(func)
        if found is None:
            found = BitwidthAnalysis(func, self.intervals.for_function(func))
            self._analyses[func] = found
        return found

    def width_map(self, func: Function) -> Dict[Instruction, int]:
        return self.for_function(func).width_map()

    # Reporting --------------------------------------------------------------

    def function_summary(self, func: Function) -> Dict[str, float]:
        """Width/area summary for one function (``repro bitwidth``)."""
        from ..ir import resource_class
        from ..hls.techlib import DEFAULT_TECHLIB

        analysis = self.for_function(func)
        int_ops = narrowed = 0
        type_bits_total = proven_bits_total = 0
        type_area = proven_area = 0.0
        for inst in func.instructions():
            if not inst.type.is_int:
                continue
            resource = resource_class(inst)
            if resource in ("control", "alloca", "call"):
                continue
            width = analysis.proven_width(inst)
            int_ops += 1
            type_bits_total += inst.type.bits
            proven_bits_total += width
            if width < inst.type.bits:
                narrowed += 1
            type_area += DEFAULT_TECHLIB.area(resource, inst.type.bits)
            proven_area += DEFAULT_TECHLIB.area(resource, width)
        return {
            "int_ops": int_ops,
            "narrowed_ops": narrowed,
            "type_bits": type_bits_total,
            "proven_bits": proven_bits_total,
            "type_area_um2": type_area,
            "proven_area_um2": proven_area,
        }
