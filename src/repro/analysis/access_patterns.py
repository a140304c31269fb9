"""Memory-access pattern analysis (paper §III-B).

For every load/store the analysis resolves

* the **base object** (global array, pointer argument, or alloca),
* the **byte-offset SCEV** relative to that base,
* whether the access has the ***stream*** pattern — its address sequence is
  statically computable (affine in the enclosing loops' induction variables),
* the **access footprint** relative to any enclosing loop: the number of
  distinct elements touched while that loop runs (paper Fig. 2d: ``ld A``
  has footprint M in the dot-product loop, ``ld z`` has footprint 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from ..ir import (
    Alloca,
    Argument,
    ArrayType,
    Function,
    GetElementPtr,
    GlobalVariable,
    Instruction,
    Load,
    Store,
    Value,
    sizeof,
)
from .loops import Loop, LoopInfo
from .scalar_evolution import (
    CNC,
    SCEV,
    SCEVAddRec,
    SCEVConstant,
    SCEVScaled,
    SCEVSum,
    SCEVUnknown,
    ScalarEvolution,
    scev_add,
    scev_mul_const,
)

BaseObject = Union[GlobalVariable, Argument, Alloca]


class AccessInfo:
    """Resolved addressing information for one load or store."""

    def __init__(
        self,
        inst: Instruction,
        base: Optional[BaseObject],
        offset: SCEV,
        element_size: int,
        loop_info: LoopInfo,
    ):
        self.inst = inst
        self.base = base
        self.offset = offset
        self.element_size = element_size
        self.loop_info = loop_info
        self._peel: Optional[Tuple[List[Tuple[Loop, SCEV]], SCEV]] = None

    @property
    def is_load(self) -> bool:
        return isinstance(self.inst, Load)

    @property
    def is_store(self) -> bool:
        return isinstance(self.inst, Store)

    @property
    def peel(self) -> Tuple[List[Tuple[Loop, SCEV]], SCEV]:
        """The offset's addrec nest, peeled once: ``([(loop, step), ...],
        residual)`` with levels outermost-first, steps as SCEVs (constant
        or symbolic), and ``residual`` the part below the innermost level.
        Uses no interval facts; :class:`SubscriptResolver` adds them."""
        if self._peel is None:
            levels = []
            scev = self.offset
            while isinstance(scev, SCEVAddRec):
                levels.append((scev.loop, scev.step))
                scev = scev.base
            levels.reverse()  # peeling yields innermost-first
            self._peel = (levels, scev)
        return self._peel

    def enclosing_loops(self) -> List[Loop]:
        """The loops around the access, innermost-first."""
        loops: List[Loop] = []
        if self.inst.parent is not None:
            loop = self.loop_info.innermost_loop(self.inst.parent)
            while loop is not None:
                loops.append(loop)
                loop = loop.parent
        return loops

    @cached_property
    def is_stream(self) -> bool:
        """True when the address sequence is statically computable: a nest
        of affine recurrences whose steps and residual symbolic part are
        invariant in every loop enclosing the access (an AGU can latch them
        once per kernel invocation).  Steps may be symbolic — ``{0,+,n}`` for
        a linearized ``A[i*n + j]`` is still a stream.  Computed once per
        access."""
        if self.base is None:
            return False
        levels = self.affine_addrec_levels()
        if levels is None:
            return False
        residual = self.peel[1]
        return all(
            residual.is_invariant_in(loop)
            and all(step.is_invariant_in(loop) for _, step in levels)
            for loop in self.enclosing_loops()
        )

    def stride_in(self, loop: Loop) -> Optional[int]:
        """Per-iteration byte stride of the address w.r.t. ``loop``.

        0 for loop-invariant addresses, None when the address is not affine
        in this loop (e.g. it varies through an inner loop with no step at
        this level, or through a non-affine index).
        """
        scev = self.offset
        while isinstance(scev, SCEVAddRec):
            if scev.loop is loop:
                return scev.constant_step
            scev = scev.base
        if self.offset.is_invariant_in(loop):
            return 0
        return None

    def addrec_levels(self) -> Optional[List]:
        """The addrec nest as ``[(loop, byte_step), ...]`` outermost-first,
        or None when the offset is not an affine recurrence nest with
        constant steps."""
        levels, residual = self.peel
        if not residual.is_affine or not all(
            isinstance(step, SCEVConstant) for _, step in levels
        ):
            return None
        return [(loop, step.value) for loop, step in levels]

    def affine_addrec_levels(self) -> Optional[List]:
        """The addrec nest as ``[(loop, step_scev)]`` outermost-first,
        allowing loop-invariant *symbolic* steps, or None when the offset is
        not an affine recurrence nest.  :meth:`SubscriptResolver.of`
        resolves the steps to byte coefficients."""
        levels, residual = self.peel
        if not residual.is_affine or not all(
            step.is_affine for _, step in levels
        ):
            return None
        return list(levels)

    def footprint_in(self, loop: Loop, trip_count: int) -> Optional[int]:
        """Distinct elements touched while ``loop`` executes ``trip_count``
        iterations (inner-loop repetitions of the same access not counted)."""
        stride = self.stride_in(loop)
        if stride is None:
            return None
        if stride == 0:
            return 1
        span = abs(stride) * (trip_count - 1) + self.element_size
        return max(1, -(-span // self.element_size)) if trip_count > 0 else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ld" if self.is_load else "st"
        base = self.base.name if self.base is not None else "?"
        return f"<{kind} {base} + {self.offset}>"


@dataclass(eq=False)
class AffineSubscript:
    """One access's byte offset as ``residual + Σ coeffs[L]·i_L``.

    ``coeffs`` maps each addrec loop, outermost-first, to its byte
    coefficient, or to None when the step is symbolic and not proven
    constant.  ``anchor`` is the residual's constant value (every loop
    index at 0), None when it stays symbolic.  ``full`` marks the fragment
    the dependence tester and the reuse analysis decide: every coefficient
    resolved, and the residual invariant in each enclosing loop that has
    no coefficient.  Banking only needs the unrolled loops' coefficients.
    """

    coeffs: Dict[Loop, Optional[int]]
    residual: SCEV
    anchor: Optional[int]
    full: bool


class SubscriptResolver:
    """Affine subscripts, constants and trip bounds for one function.

    ``intervals`` (a :class:`repro.dataflow.interval.IntervalAnalysis`)
    resolves symbolic steps and offsets that are provably constant and
    supplies static trip bounds; without it only literal constants resolve
    and no trip bound is known.  One instance per function serves the
    dependence tester, banking and reuse, so each access is resolved once.
    """

    def __init__(self, loop_info: LoopInfo, intervals=None):
        self.loop_info = loop_info
        self.intervals = intervals
        self._subscripts: Dict[Instruction, Optional[AffineSubscript]] = {}
        self._trips: Dict[Loop, Optional[int]] = {}

    def of(self, info: AccessInfo) -> Optional[AffineSubscript]:
        """The affine form of ``info``, or None for an unresolved base or
        an offset outside the affine fragment."""
        inst = info.inst
        if inst not in self._subscripts:
            self._subscripts[inst] = self._resolve(info)
        return self._subscripts[inst]

    def full(self, info: AccessInfo) -> Optional[AffineSubscript]:
        """``of(info)`` when it is fully resolved, else None."""
        subscript = self.of(info)
        return subscript if subscript is not None and subscript.full else None

    def trip(self, loop: Loop) -> Optional[int]:
        """Interval-proven trip bound of ``loop``, if any."""
        if loop not in self._trips:
            self._trips[loop] = (
                None if self.intervals is None
                else self.intervals.static_trip_bound(loop)
            )
        return self._trips[loop]

    def const(self, scev: SCEV) -> Optional[int]:
        """Resolve a SCEV to a compile-time integer, consulting the interval
        analysis for symbolic values proven constant (e.g. a seeded
        argument)."""
        if isinstance(scev, SCEVConstant):
            return scev.value
        if isinstance(scev, SCEVUnknown):
            if self.intervals is not None:
                iv = self.intervals.interval_of(scev.value)
                if iv is not None and not iv.is_bottom and iv.is_constant:
                    return iv.lo
            return None
        if isinstance(scev, SCEVScaled):
            inner = self.const(scev.inner)
            return None if inner is None else inner * scev.factor
        if isinstance(scev, SCEVSum):
            total = scev.constant
            for term in scev.terms:
                value = self.const(term)
                if value is None:
                    return None
                total += value
            return total
        return None

    def extent(self, info: AccessInfo) -> Optional[Tuple[int, int]]:
        """Byte range ``[start, end)`` that ``info`` touches over every
        iteration of its addrec loops, or None when the anchor, a
        coefficient or a trip bound is unknown."""
        subscript = self.of(info)
        if subscript is None or subscript.anchor is None:
            return None
        start = subscript.anchor
        end = start + info.element_size
        for loop, coeff in subscript.coeffs.items():
            trip = self.trip(loop)
            if coeff is None or trip is None:
                return None
            span = coeff * max(0, trip - 1)
            if span >= 0:
                end += span
            else:
                start += span
        return start, end

    def _resolve(self, info: AccessInfo) -> Optional[AffineSubscript]:
        if info.base is None or info.affine_addrec_levels() is None:
            return None
        levels, residual = info.peel
        coeffs: Dict[Loop, Optional[int]] = {}
        for loop, step in levels:
            value, prior = self.const(step), coeffs.get(loop, 0)
            coeffs[loop] = None if None in (value, prior) else prior + value
        # The residual must be frozen across the whole nest around the
        # access — otherwise it hides another induction.
        full = None not in coeffs.values() and all(
            loop in coeffs or residual.is_invariant_in(loop)
            for loop in info.enclosing_loops()
        )
        return AffineSubscript(coeffs, residual, self.const(residual), full)


def _walk_type_sizes(pointee) -> List[int]:
    """Byte scale of each GEP index level for a pointee type."""
    scales = [sizeof(pointee)]
    ty = pointee
    while isinstance(ty, ArrayType):
        ty = ty.element
        scales.append(sizeof(ty))
    return scales


class AccessPatternAnalysis:
    """Per-function resolution of all memory accesses."""

    def __init__(self, func: Function):
        self.func = func
        self.loop_info = LoopInfo.of(func)
        self.scev = ScalarEvolution(self.loop_info)
        self._info: Dict[Instruction, AccessInfo] = {}
        for inst in func.instructions():
            if isinstance(inst, (Load, Store)):
                self._info[inst] = self._resolve(inst)

    def info(self, inst: Instruction) -> AccessInfo:
        return self._info[inst]

    def accesses(self) -> List[AccessInfo]:
        return list(self._info.values())

    def accesses_in(self, blocks) -> List[AccessInfo]:
        block_set = set(blocks)
        return [a for a in self._info.values() if a.inst.parent in block_set]

    # Resolution ------------------------------------------------------------------

    def _resolve(self, inst: Instruction) -> AccessInfo:
        pointer = inst.pointer  # type: ignore[attr-defined]
        element_size = sizeof(pointer.type.pointee)
        base, offset = self._resolve_pointer(pointer)
        return AccessInfo(inst, base, offset, element_size, self.loop_info)

    def _resolve_pointer(self, pointer: Value):
        """Peel GEPs down to a base object, accumulating the byte offset."""
        offset: SCEV = SCEVConstant(0)
        current = pointer
        while True:
            if isinstance(current, GetElementPtr):
                scales = _walk_type_sizes(current.base.type.pointee)
                for level, index in enumerate(current.indices):
                    index_scev = self.scev.scev_of(index)
                    scaled = scev_mul_const(index_scev, scales[min(level, len(scales) - 1)])
                    offset = scev_add(offset, scaled)
                current = current.base
                continue
            if isinstance(current, (GlobalVariable, Alloca)):
                return current, offset
            if isinstance(current, Argument) and current.type.is_pointer:
                return current, offset
            # Loaded pointers / phis of pointers: unknown base.
            return None, CNC
