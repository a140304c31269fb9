"""Interval (value-range) analysis over the IR (paper §III-B companion).

Per-SSA-value integer ranges computed by forward dataflow with loop-header
widening and branch-condition refinement: after ``condbr (icmp slt %i, %n)``
the true edge knows ``%i < %n`` and tightens both operands.  Widening moves
a growing bound to the nearest threshold: a program constant or a type
bound.  The type's representable range doubles as ⊤ — the interpreter wraps
to two's complement, so a value of ``iN`` always lies in
``[-2^(N-1), 2^(N-1)-1]`` and every derived fact stays sound.

A module-level driver (:class:`ModuleIntervalAnalysis`) runs functions in
callers-first order and seeds each function's argument ranges with the join
of the actual arguments at every intra-module call site, so constants flow
from ``main(){ kernel(24); }`` into ``kernel``'s loop bounds.  Functions
with no intra-module callers (the external entry) get ⊤ arguments.

Clients: bounds proofs (:mod:`repro.dataflow.bounds`), the lint rules
IR007/IR008/AN004, the accelerator model's footprint clamping, and the
interpreter's sanitizer.
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
    Function,
    ICmp,
    Instruction,
    Module,
    Select,
    UnaryOp,
    Value,
)
from ..analysis.callgraph import CallGraph
from ..analysis.loops import Loop
from .framework import EnvDataflow


#: The facts of a block the solver never reached (read only).
_NO_FACTS: Dict = {}


class Interval:
    """A closed integer interval ``[lo, hi]``; ``None`` bounds mean ±∞.

    The empty (bottom) interval is represented by the singleton
    :data:`BOTTOM`; every other instance is non-empty.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Optional[int], hi: Optional[int]):
        self.lo = lo
        self.hi = hi

    # Constructors -----------------------------------------------------------

    @staticmethod
    def constant(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def of_type(bits: int) -> "Interval":
        if bits <= 1:
            return Interval(0, 1)
        return Interval(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)

    # Predicates -------------------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return self is BOTTOM

    @property
    def is_constant(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.is_bottom:
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def subset_of(self, other: "Interval") -> bool:
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        lo_ok = other.lo is None or (self.lo is not None and self.lo >= other.lo)
        hi_ok = other.hi is None or (self.hi is not None and self.hi <= other.hi)
        return lo_ok and hi_ok

    # Lattice ----------------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        """The hull; ``self`` itself when it already covers ``other``."""
        if self is BOTTOM:
            return other
        if other is BOTTOM:
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        if lo == self.lo and hi == self.hi:
            return self
        return Interval(lo, hi)

    def intersect(self, other: "Interval") -> "Interval":
        """The meet; ``self`` itself when ``other`` does not cut it."""
        if self is BOTTOM or other is BOTTOM:
            return BOTTOM
        lo = self.lo if other.lo is None else (
            other.lo if self.lo is None else max(self.lo, other.lo)
        )
        hi = self.hi if other.hi is None else (
            other.hi if self.hi is None else min(self.hi, other.hi)
        )
        if lo is not None and hi is not None and lo > hi:
            return BOTTOM
        if lo == self.lo and hi == self.hi:
            return self
        return Interval(lo, hi)

    # Exact (unwrapped) arithmetic -------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return BOTTOM
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return BOTTOM
        lo = None if self.lo is None or other.hi is None else self.lo - other.hi
        hi = None if self.hi is None or other.lo is None else self.hi - other.lo
        return Interval(lo, hi)

    def neg(self) -> "Interval":
        if self.is_bottom:
            return BOTTOM
        return Interval(
            None if self.hi is None else -self.hi,
            None if self.lo is None else -self.lo,
        )

    def mul(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return BOTTOM
        if None in (self.lo, self.hi, other.lo, other.hi):
            # A finite corner analysis with infinities needs sign reasoning;
            # only the all-finite and scale-by-constant cases matter here.
            if other.is_constant:
                return self._mul_const(other.lo)
            if self.is_constant:
                return other._mul_const(self.lo)
            return Interval.top()
        corners = [
            self.lo * other.lo, self.lo * other.hi,
            self.hi * other.lo, self.hi * other.hi,
        ]
        return Interval(min(corners), max(corners))

    def _mul_const(self, factor: int) -> "Interval":
        if factor == 0:
            return Interval.constant(0)
        lo = None if self.lo is None else self.lo * factor
        hi = None if self.hi is None else self.hi * factor
        if factor < 0:
            lo, hi = hi, lo
        return Interval(lo, hi)

    def shl(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return BOTTOM
        if other.is_constant and other.lo is not None and 0 <= other.lo < 63:
            return self._mul_const(1 << other.lo)
        return Interval.top()

    def shr(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return BOTTOM
        if (
            other.is_constant and other.lo is not None and 0 <= other.lo < 63
            and self.lo is not None and self.hi is not None
        ):
            return Interval(self.lo >> other.lo, self.hi >> other.lo)
        return Interval.top()

    def span(self) -> Optional[int]:
        """``hi - lo`` when both bounds are finite."""
        if self.is_bottom or self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo

    # Plumbing ---------------------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Interval)
            and (self is BOTTOM) == (other is BOTTOM)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self is BOTTOM, self.lo, self.hi))

    def __repr__(self):
        if self.is_bottom:
            return "⊥"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


BOTTOM = Interval(0, -1)  # canonical empty interval (lo > hi marker)


def _clamp(interval: Interval, bits: int) -> Interval:
    """Wrap-aware clamp: an exact range escaping the representable window
    wraps in two's complement, so the sound result is the full type range
    unless the exact range already fits."""
    rep = Interval.of_type(bits)
    if interval.is_bottom:
        return BOTTOM
    if interval.subset_of(rep):
        return interval
    return rep


_NEGATE = {"eq": "ne", "ne": "eq", "slt": "sge", "sle": "sgt",
           "sgt": "sle", "sge": "slt"}


def _refine_pair(
    pred: str, lhs: Interval, rhs: Interval
) -> Tuple[Interval, Interval]:
    """Refined (lhs, rhs) assuming ``lhs pred rhs`` holds."""
    if pred == "eq":
        meet = lhs.intersect(rhs)
        return meet, meet
    if pred == "ne":
        return lhs, rhs
    if pred in ("slt", "sle"):
        off = 1 if pred == "slt" else 0
        new_lhs = lhs.intersect(
            Interval(None, None if rhs.hi is None else rhs.hi - off)
        )
        new_rhs = rhs.intersect(
            Interval(None if lhs.lo is None else lhs.lo + off, None)
        )
        return new_lhs, new_rhs
    if pred in ("sgt", "sge"):
        off = 1 if pred == "sgt" else 0
        new_lhs = lhs.intersect(
            Interval(None if rhs.lo is None else rhs.lo + off, None)
        )
        new_rhs = rhs.intersect(
            Interval(None, None if lhs.hi is None else lhs.hi - off)
        )
        return new_lhs, new_rhs
    return lhs, rhs


class IntervalAnalysis(EnvDataflow):
    """Per-function interval analysis.

    ``arg_intervals`` optionally seeds argument ranges (from the
    interprocedural driver); unseeded integer arguments get their type's
    full range.
    """

    def __init__(
        self,
        func: Function,
        arg_intervals: Optional[Dict[Argument, Interval]] = None,
    ):
        super().__init__(func)
        self.arg_intervals = dict(arg_intervals or {})
        self._thresholds = self._collect_thresholds()
        self._loop_defs = self._collect_loop_defs()
        self.solve()

    def _collect_thresholds(self) -> List[int]:
        """Widening thresholds: jumping to the nearest program constant
        (instead of straight to the type bound) lets loop bounds like
        ``i < n`` stabilize at ``n`` without losing the other bound to the
        wrap-soundness clamp."""
        points = {0, 1, -1}
        for inst in self.func.instructions():
            for op in inst.operands:
                if isinstance(op, Constant) and op.type.is_int:
                    value = int(op.value)
                    points.update((value - 1, value, value + 1))
            if inst.type.is_int:
                points.update(
                    (Interval.of_type(inst.type.bits).lo,
                     Interval.of_type(inst.type.bits).hi)
                )
        for arg in self.func.arguments:
            if arg.type.is_int:
                points.update(
                    (Interval.of_type(arg.type.bits).lo,
                     Interval.of_type(arg.type.bits).hi)
                )
                seeded = self.arg_intervals.get(arg)
                if seeded is not None:
                    for bound in (seeded.lo, seeded.hi):
                        if bound is not None:
                            points.update((bound - 1, bound, bound + 1))
        return sorted(points)

    def _collect_loop_defs(self) -> Dict[BasicBlock, set]:
        """Per loop header, the SSA values defined inside that loop — the
        only values whose ranges the loop itself can grow.  Widening just
        those keeps outer-loop invariants (already refined by enclosing
        branches) precise inside nested loops."""
        defs: Dict[BasicBlock, set] = {}
        for loop in self.loop_info.loops:
            defs[loop.header] = {
                inst
                for block in loop.blocks
                for inst in block.instructions
            }
        return defs

    def _widen_bound_up(self, bound: Optional[int]) -> Optional[int]:
        if bound is None:
            return None
        for t in self._thresholds:
            if t >= bound:
                return t
        return None

    def _widen_bound_down(self, bound: Optional[int]) -> Optional[int]:
        if bound is None:
            return None
        for t in reversed(self._thresholds):
            if t <= bound:
                return t
        return None

    def _widen_interval(self, older: Interval, newer: Interval) -> Interval:
        """``older ∇ newer`` with thresholds: a bound that moved jumps to
        the nearest enclosing threshold (or ∞ past the last one)."""
        if older.is_bottom:
            return newer
        if newer.is_bottom:
            return older
        lo = newer.lo
        if older.lo is not None and (newer.lo is None or newer.lo < older.lo):
            lo = self._widen_bound_down(newer.lo)
        hi = newer.hi
        if older.hi is not None and (newer.hi is None or newer.hi > older.hi):
            hi = self._widen_bound_up(newer.hi)
        if lo == newer.lo and hi == newer.hi:
            return newer
        return Interval(lo, hi)

    # Lattice ----------------------------------------------------------------

    def widen(self, old: Dict, new: Dict, block: BasicBlock) -> Dict:
        loop_defs = self._loop_defs[block]
        values: Dict[Value, Interval] = {}
        for key, newer in new.items():
            older = old.get(key)
            if older is None or older is newer:
                values[key] = newer
            elif key not in loop_defs:
                # The loop headed at ``block`` cannot grow this value's
                # range; plain join keeps enclosing-branch refinements.
                values[key] = newer
            else:
                values[key] = self._widen_interval(older, newer)
        return values

    # Evaluation -------------------------------------------------------------

    def top(self, value: Value) -> Interval:
        return Interval.of_type(value.type.bits)

    def fact_of(self, value: Value, env: Dict) -> Interval:
        if isinstance(value, Constant):
            if value.type.is_int or value.type.is_bool:
                return Interval.constant(int(value.value))
            return Interval.top()
        found = env.get(value)
        if found is not None:
            return found
        if isinstance(value, Argument):
            seeded = self.arg_intervals.get(value)
            if seeded is not None:
                return seeded
            if value.type.is_int:
                return Interval.of_type(value.type.bits)
            return Interval.top()
        if value.type.is_int or value.type.is_bool:
            return Interval.of_type(value.type.bits)
        return Interval.top()

    def transfer_inst(
        self, inst: Instruction, env: Dict
    ) -> Optional[Interval]:
        if not inst.type.is_int:
            return None
        if isinstance(inst, BinaryOp):
            lhs = self.fact_of(inst.lhs, env)
            rhs = self.fact_of(inst.rhs, env)
            exact = self._exact_binary(inst.opcode, lhs, rhs)
            return _clamp(exact, inst.type.bits)
        if isinstance(inst, ICmp):
            return Interval(0, 1)
        if isinstance(inst, Select):
            return self.fact_of(inst.operands[1], env).join(
                self.fact_of(inst.operands[2], env)
            )
        if isinstance(inst, Cast):
            if inst.opcode in ("sext", "zext", "trunc"):
                inner = self.fact_of(inst.operands[0], env)
                if inst.opcode == "zext":
                    src_bits = inst.operands[0].type.bits
                    if inner.lo is not None and inner.lo < 0:
                        inner = Interval(0, (1 << src_bits) - 1)
                return _clamp(inner, inst.type.bits)
            return Interval.of_type(inst.type.bits)  # fptosi
        if isinstance(inst, UnaryOp):
            if inst.opcode == "neg":
                inner = self.fact_of(inst.operands[0], env)
                return _clamp(inner.neg(), inst.type.bits)
            return Interval.of_type(inst.type.bits)  # not
        # Loads, calls and anything unhandled: the type range.
        return Interval.of_type(inst.type.bits)

    @staticmethod
    def _exact_binary(opcode: str, lhs: Interval, rhs: Interval) -> Interval:
        if opcode == "add":
            return lhs.add(rhs)
        if opcode == "sub":
            return lhs.sub(rhs)
        if opcode == "mul":
            return lhs.mul(rhs)
        if opcode == "shl":
            return lhs.shl(rhs)
        if opcode == "shr":
            return lhs.shr(rhs)
        if opcode == "rem":
            if (
                rhs.lo is not None and rhs.hi is not None
                and (rhs.lo > 0 or rhs.hi < 0)
            ):
                bound = max(abs(rhs.lo), abs(rhs.hi)) - 1
                if lhs.lo is not None and lhs.lo >= 0:
                    return Interval(0, bound)
                return Interval(-bound, bound)
            return Interval.top()
        if opcode == "div":
            if (
                None not in (lhs.lo, lhs.hi, rhs.lo, rhs.hi)
                and (rhs.lo > 0 or rhs.hi < 0)
            ):
                corners = [
                    _c_div(lhs.lo, rhs.lo), _c_div(lhs.lo, rhs.hi),
                    _c_div(lhs.hi, rhs.lo), _c_div(lhs.hi, rhs.hi),
                ]
                return Interval(min(corners), max(corners))
            return Interval.top()
        if opcode == "and":
            # Non-negative & non-negative stays within either operand.
            if (
                lhs.lo is not None and lhs.lo >= 0
                and rhs.lo is not None and rhs.lo >= 0
            ):
                his = [h for h in (lhs.hi, rhs.hi) if h is not None]
                return Interval(0, min(his) if his else None)
            return Interval.top()
        return Interval.top()  # or, xor

    # Branch refinement -----------------------------------------------------

    def edge_refinement(self, pred: BasicBlock, succ: BasicBlock):
        """``(predicate, lhs, rhs)`` holding on the edge when ``pred`` ends
        in a ``condbr`` on an ``icmp``: the predicate on the true edge, its
        negation on the false one.  A two-way branch where both targets are
        ``succ`` refines nothing."""
        term = pred.terminator
        if not isinstance(term, CondBranch):
            return None
        cond = term.condition
        if not isinstance(cond, ICmp) or term.true_target is term.false_target:
            return None
        taken = succ is term.true_target
        pred_name = cond.predicate if taken else _NEGATE[cond.predicate]
        return pred_name, cond.operands[0], cond.operands[1]

    def refine_edge(self, refinement, env: Dict) -> Dict[Value, Interval]:
        pred_name, lhs_v, rhs_v = refinement
        lhs, rhs = _refine_pair(
            pred_name, self.fact_of(lhs_v, env), self.fact_of(rhs_v, env)
        )
        overlay: Dict[Value, Interval] = {}
        if not isinstance(lhs_v, Constant):
            overlay[lhs_v] = lhs
        if not isinstance(rhs_v, Constant):
            overlay[rhs_v] = rhs
        return overlay

    # Queries ----------------------------------------------------------------

    def interval_of(self, value: Value, block: Optional[BasicBlock] = None) -> Interval:
        """Range of ``value`` as observed at its definition (for
        instructions) or, with ``block``, at that block's entry."""
        if isinstance(value, Constant):
            if value.type.is_int or value.type.is_bool:
                return Interval.constant(int(value.value))
            return Interval.top()
        if block is not None:
            found = self.in_states.get(block, _NO_FACTS).get(value)
            if found is not None:
                return found
        if isinstance(value, Instruction):
            found = self.out_states.get(value.parent, _NO_FACTS).get(value)
            if found is not None:
                return found
        if isinstance(value, Argument):
            seeded = self.arg_intervals.get(value)
            if seeded is not None:
                return seeded
        if value.type.is_int or value.type.is_bool:
            return Interval.of_type(value.type.bits)
        return Interval.top()

    def interval_at_use(self, value: Value, user: Instruction) -> Interval:
        """Range of ``value`` at the point ``user`` executes — per-block
        refinements (branch conditions) apply when ``value`` is defined
        outside the user's block."""
        block = user.parent
        if block is None or isinstance(value, Constant):
            return self.interval_of(value)
        if isinstance(value, Instruction) and value.parent is block:
            return self.interval_of(value)
        return self.interval_of(value, block)

    def exact_result(self, inst: Instruction) -> Optional[Interval]:
        """Mathematically exact (pre-wrap) result range of an integer
        binary op at its program point, or None for other instructions.
        Comparing this against the type range proves wraparound."""
        if not (isinstance(inst, BinaryOp) and inst.type.is_int):
            return None
        lhs = self.interval_at_use(inst.lhs, inst)
        rhs = self.interval_at_use(inst.rhs, inst)
        return self._exact_binary(inst.opcode, lhs, rhs)

    def static_trip_bound(self, loop: Loop) -> Optional[int]:
        """Statically proven upper bound on the loop's trip count, from the
        induction phi's proven range and step (None when unprovable)."""
        phi = loop.induction_phi()
        if phi is None:
            return None
        step = None
        from ..analysis.loops import _increment_amount

        for value, pred in phi.incoming():
            if pred in loop.blocks:
                step = _increment_amount(value, phi)
        if not step:
            return None
        # Prefer the phi's range inside the loop body (past the header's
        # exit test) — the header range also contains the exit value.
        interval = None
        for succ in loop.header.successors:
            if succ in loop.blocks:
                interval = self.in_states.get(succ, _NO_FACTS).get(phi)
                break
        if interval is None:
            interval = self.interval_of(phi, loop.header)
        span = interval.span()
        if span is None:
            return None
        return span // abs(step) + 1


def _c_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


class ModuleIntervalAnalysis:
    """Interval analyses for every defined function, with interprocedural
    argument seeding along the call graph (callers analyzed first)."""

    def __init__(self, module: Module):
        self.module = module
        self.callgraph = CallGraph(module)
        self._analyses: Dict[Function, IntervalAnalysis] = {}
        order = [
            f for f in reversed(self.callgraph.topological_order())
            if not f.is_declaration
        ]
        analyzed: Dict[Function, IntervalAnalysis] = {}
        for func in order:
            analyzed[func] = IntervalAnalysis(
                func, arg_intervals=self._arg_seed(func, analyzed)
            )
        self._analyses = analyzed

    def _arg_seed(
        self, func: Function, analyzed: Dict[Function, IntervalAnalysis]
    ) -> Dict[Argument, Interval]:
        """Join of actual-argument ranges over all intra-module call sites;
        ⊤ (type range) when the function has none or sits in a recursion
        cycle whose callers are not yet analyzed."""
        calls: List[Call] = []
        for caller in self.module.defined_functions():
            for inst in caller.instructions():
                if isinstance(inst, Call) and inst.callee is func:
                    calls.append(inst)
        if not calls:
            return {}
        seed: Dict[Argument, Interval] = {}
        for formal in func.arguments:
            if not formal.type.is_int:
                continue
            joined: Optional[Interval] = None
            for call in calls:
                actual = call.operands[formal.index]
                if isinstance(actual, Constant):
                    interval = Interval.constant(int(actual.value))
                else:
                    caller = call.parent.parent if call.parent else None
                    caller_analysis = analyzed.get(caller)
                    if caller_analysis is None:
                        interval = Interval.of_type(formal.type.bits)
                    else:
                        interval = caller_analysis.interval_at_use(actual, call)
                joined = interval if joined is None else joined.join(interval)
            if joined is not None:
                seed[formal] = joined
        return seed

    def for_function(self, func: Function) -> IntervalAnalysis:
        if func not in self._analyses:
            self._analyses[func] = IntervalAnalysis(func)
        return self._analyses[func]
