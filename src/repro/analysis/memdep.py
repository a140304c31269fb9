"""Memory dependence analysis (paper §III-B).

Identifies loop-carried dependencies for every loop: pairs of accesses to
memory that may overlap where a value stored in one iteration is observed
(or overwritten) in a later iteration.  These dependencies constrain loop
unrolling (only loops *without* carried dependencies are unrolled) and bound
the achievable pipeline initiation interval (RecMII).

Aliasing model: two accesses can conflict when their base objects may
overlap.  The same base object (identical global, alloca, or pointer
argument) always overlaps with itself; *distinct* globals and allocas are
distinct allocations and never overlap.  For everything else — pointer
arguments against each other or against globals — the analysis consults an
optional Andersen-style points-to analysis
(:class:`repro.dataflow.pointsto.PointsToAnalysis`): when the may-point-to
sets are disjoint the pair is proven independent, otherwise a conservative
carried dependence with unknown distance is recorded (``via_alias=True``).
Without points-to facts such pairs are conservatively assumed to conflict.

``assume_restrict=True`` restores the historical model that treated every
pointer argument as ``restrict`` (distinct arguments never alias).  That is
*unsound* for callers that bind two arguments to the same buffer — see
``docs/diagnostics.md`` — and is kept only as an escape hatch / baseline;
:meth:`MemoryDependenceAnalysis.restrict_model_misses` reports exactly the
dependences the restrict model would silently drop.  Accesses whose offset
SCEV is unanalyzable are conservatively assumed to conflict in all modes.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir import Alloca, GlobalVariable
from ..telemetry import current as current_telemetry
from .access_patterns import (
    AccessInfo,
    AccessPatternAnalysis,
    SubscriptResolver,
)
from .dependence import DependenceTester, DependenceVector
from .loops import Loop
from .scalar_evolution import SCEVAddRec, SCEVConstant, scev_sub


def _count_tier(tier: str) -> None:
    """Telemetry: which decision tier settled one access pair.

    Tiers, from most to least precise: ``vector`` (affine multi-subscript
    engine), ``stride`` (legacy 1-D constant-stride arithmetic),
    ``windowed`` (per-iteration byte-window overlap), ``lockstep``
    (symbolic loop-invariant row difference), ``base_disjoint`` /
    ``alias`` (points-to verdicts), ``unknown_base`` and ``conservative``
    (gave up, dependence assumed).
    """
    current_telemetry().count(f"dependence.tier.{tier}")


class Dependence:
    """A loop-carried dependence between two possibly-overlapping accesses.

    ``distance`` is the *proven minimal* iteration distance when known
    (None = unknown, treat as 1 for RecMII purposes, i.e. the tightest
    recurrence).  ``vector`` carries the per-level affine dependence vector
    when the pair was decided by :class:`repro.analysis.dependence.
    DependenceTester` (None for the conservative fallback paths).
    ``via_alias`` marks dependences between *distinct* base pointers that a
    points-to analysis could not prove disjoint — the pairs the old blanket-
    restrict model ignored entirely.
    """

    def __init__(
        self,
        source: AccessInfo,
        sink: AccessInfo,
        loop: Loop,
        kind: str,
        distance: Optional[int],
        via_alias: bool = False,
        vector: Optional[DependenceVector] = None,
    ):
        self.source = source          # earlier-iteration access (a store)
        self.sink = sink              # later-iteration access
        self.loop = loop
        self.kind = kind              # "flow" | "anti" | "output"
        self.distance = distance
        self.via_alias = via_alias
        self.vector = vector

    @property
    def effective_distance(self) -> int:
        return self.distance if self.distance is not None and self.distance > 0 else 1

    def _base_label(self, info: AccessInfo) -> str:
        base = info.base
        if base is None:
            return "?"
        return getattr(base, "name", "?")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = self._base_label(self.source)
        dst = self._base_label(self.sink)
        tag = " via-alias" if self.via_alias else ""
        dist = "?" if self.distance is None else str(self.distance)
        return (
            f"<Dep {self.kind} {self.source.inst.opcode}[{src}] -> "
            f"{self.sink.inst.opcode}[{dst}] dist={dist}{tag}>"
        )


def _classify(first: AccessInfo, second: AccessInfo) -> str:
    if first.is_store and second.is_load:
        return "flow"
    if first.is_load and second.is_store:
        return "anti"
    return "output"


def _distinct_allocations(a, b) -> bool:
    """Distinct globals/allocas are separate storage — provably disjoint
    without any pointer analysis."""
    return (
        isinstance(a, (GlobalVariable, Alloca))
        and isinstance(b, (GlobalVariable, Alloca))
        and a is not b
    )


class MemoryDependenceAnalysis:
    """Loop-carried dependence computation on top of the access analysis.

    ``points_to`` supplies module-level may-alias facts for base pointers
    that are not trivially the same or trivially disjoint (pointer
    arguments).  ``intervals`` (a per-function
    :class:`repro.dataflow.interval.IntervalAnalysis`) supplies proven trip
    bounds for loops nested inside the analyzed one, enabling the
    window-overlap disjointness test for accesses that sweep an inner-loop
    span each iteration; without it such pairs are conservatively carried.
    ``assume_restrict`` reinstates the unsound historical model in which
    distinct pointer arguments never alias.  ``vector_distances`` (default
    on) decides affine same-base pairs with the multi-subscript
    :class:`repro.analysis.dependence.DependenceTester`, yielding proven
    minimal distances and per-level dependence vectors; off, the legacy 1-D
    stride/window tests decide everything (the before/after baseline used by
    the ``pipeline_ii`` bench section).
    """

    def __init__(
        self,
        access_analysis: AccessPatternAnalysis,
        points_to=None,
        assume_restrict: bool = False,
        intervals=None,
        vector_distances: bool = True,
    ):
        self.access = access_analysis
        self.loop_info = access_analysis.loop_info
        self.points_to = points_to
        self.assume_restrict = assume_restrict
        self.intervals = intervals
        self.vector_distances = vector_distances
        #: The function's one subscript resolver, shared with banking and
        #: reuse through :class:`repro.model.estimator.FunctionContext`.
        self.resolver = SubscriptResolver(self.loop_info, intervals)
        self.tester = DependenceTester(self.resolver)
        self._carried_cache: dict = {}

    # Base-object disambiguation ---------------------------------------------

    def _bases_may_overlap(self, a: AccessInfo, b: AccessInfo) -> Optional[bool]:
        """None = unknown bases (conservative), True/False otherwise."""
        if a.base is None or b.base is None:
            return None
        if a.base is b.base:
            return True
        if _distinct_allocations(a.base, b.base):
            return False
        if self.assume_restrict:
            # Historical model: distinct pointer arguments are restrict.
            return False
        if self.points_to is not None:
            return self.points_to.may_alias(a.base, b.base)
        return True  # distinct pointers, no facts: assume overlap

    # Inner-window disjointness ----------------------------------------------

    @staticmethod
    def _varies_inside(info: AccessInfo, loop: Loop) -> bool:
        """Whether the address recurs through a loop nested inside ``loop``."""
        scev = info.offset
        while isinstance(scev, SCEVAddRec):
            if scev.loop is not loop and loop.contains_loop(scev.loop):
                return True
            scev = scev.base
        return False

    def _peel_window(self, info: AccessInfo, loop: Loop):
        """Decompose the offset w.r.t. ``loop``: ``(base, step, lo, hi)``.

        At iteration ``t`` the access touches byte offsets within
        ``base + step*t + [lo, hi + access_size)`` — ``[lo, hi]`` is the
        reach of all inner-loop recurrence levels, bounded by their proven
        trip counts.  None when a step or an inner trip bound is unknown.
        """
        step_at_loop = 0
        lo = hi = 0
        scev = info.offset
        while isinstance(scev, SCEVAddRec):
            step = scev.constant_step
            if scev.loop is loop:
                if step is None:
                    return None
                step_at_loop += step
            elif loop.contains_loop(scev.loop):
                if step is None or self.intervals is None:
                    return None
                trip = self.intervals.static_trip_bound(scev.loop)
                if trip is None:
                    return None
                reach = step * max(0, trip - 1)
                lo += min(0, reach)
                hi += max(0, reach)
            else:
                break  # enclosing/disjoint loop: frozen while ``loop`` runs
            scev = scev.base
        return scev, step_at_loop, lo, hi

    def _windowed_distance(self, a: AccessInfo, b: AccessInfo, loop: Loop):
        """Carried-dependence verdict when inner loops sweep a window.

        A conflict between iterations ``t`` and ``t' = t - k`` (``k != 0``)
        requires ``step*k`` to fall inside the open interval spanned by the
        two per-iteration windows; if no such multiple exists the accesses
        are disjoint across iterations, else the smallest ``|k|`` is a
        sound (minimal) dependence distance.
        """
        peeled_a = self._peel_window(a, loop)
        peeled_b = self._peel_window(b, loop)
        if peeled_a is None or peeled_b is None:
            return (None, False, None)
        base_a, step_a, lo_a, hi_a = peeled_a
        base_b, step_b, lo_b, hi_b = peeled_b
        if step_a != step_b:
            return (None, False, None)  # drifting windows may collide eventually
        delta = scev_sub(base_a, base_b)
        if not isinstance(delta, SCEVConstant):
            return (None, False, None)
        d0 = delta.value
        # Windows overlap at iteration distance k iff
        #   d0 + step*k + [lo_a, hi_a + size_a)  ∩  [lo_b, hi_b + size_b) ≠ ∅
        # i.e. step*k lies in the open interval (low, high):
        low = lo_b - hi_a - a.element_size - d0
        high = hi_b + b.element_size - lo_a - d0
        step = abs(step_a)
        if step == 0:
            # Same window every iteration: carried iff the windows overlap.
            return (1, False, None) if low < 0 < high else None
        # Integer multiples of ``step`` strictly inside (low, high).
        smallest = low // step + 1             # smallest k with step*k > low
        largest = -((-high) // step) - 1       # largest k with step*k < high
        if smallest > largest:
            return None
        has_positive = largest >= max(1, smallest)
        has_negative = smallest <= min(-1, largest)
        if not has_positive and not has_negative:
            return None  # only k == 0 fits: same-iteration overlap only
        candidates = []
        if has_positive:
            candidates.append(max(1, smallest))
        if has_negative:
            candidates.append(-min(-1, largest))
        return (min(candidates), False, None)

    def _carried_distance(
        self, a: AccessInfo, b: AccessInfo, loop: Loop
    ) -> Optional[tuple]:
        """Decide whether accesses ``a`` and ``b`` conflict across iterations.

        Returns None for "no loop-carried dependence", or ``(distance,
        via_alias, vector)`` where distance may itself be None for "carried
        with unknown distance" and ``vector`` is the affine dependence
        vector when the multi-subscript test decided the pair.
        """
        overlap = self._bases_may_overlap(a, b)
        if overlap is None:
            _count_tier("unknown_base")
            return (None, False, None)  # unknown base: conservative
        if not overlap:
            _count_tier("base_disjoint")
            return None
        if a.base is not b.base:
            # May-overlap through aliasing: offsets are relative to
            # different SSA pointers, so no distance arithmetic applies.
            _count_tier("alias")
            return (None, True, None)
        if self.vector_distances:
            # Multi-subscript affine test: exact ZIV/SIV + GCD/Banerjee on
            # residue lattices, covering inner-loop windows and symbolic
            # strides the 1-D tests below give up on.
            verdict = self.tester.test_pair(a, b, loop)
            if verdict is not None:
                _count_tier("vector")
                if verdict.independent:
                    return None
                return (verdict.distance, False, verdict.vector)
        if self._varies_inside(a, loop) or self._varies_inside(b, loop):
            # At least one access sweeps an inner-loop window on every
            # iteration of ``loop``; per-iteration distance arithmetic
            # (which implicitly compares instances at *matching* inner
            # indices) is invalid there — iteration k of a Gaussian
            # elimination stores rows i>k that iteration i later reads.
            # Decide by overlapping the per-iteration byte windows instead.
            _count_tier("windowed")
            return self._windowed_distance(a, b, loop)
        stride_a = a.stride_in(loop)
        stride_b = b.stride_in(loop)
        if stride_a is None or stride_b is None:
            _count_tier("conservative")
            return (None, False, None)  # address varies unanalyzably within the loop
        delta = scev_sub(a.offset, b.offset)
        if not isinstance(delta, SCEVConstant):
            # Same base, offsets differ by a non-constant.  When the
            # difference is *invariant in this loop* (rows chosen by
            # enclosing loops, e.g. A[i][j] vs A[k][j] inside the j-loop)
            # and the strides match, the two address sequences track in
            # lockstep and distinct symbolic rows stay disjoint.  A
            # difference that varies inside the loop — an inner induction
            # variable under an outer loop, as in Gaussian elimination
            # where iteration k stores row i>k and iteration i later reads
            # it — can collide across iterations; assume carried.
            if stride_a == stride_b and delta.is_invariant_in(loop):
                _count_tier("lockstep")
                return None
            _count_tier("conservative")
            return (None, False, None)
        diff = delta.value
        if stride_a != stride_b:
            # Different strides with constant offset difference can collide
            # at some iteration pair; be conservative.
            _count_tier("conservative")
            return (None, False, None)
        stride = stride_a
        _count_tier("stride")
        # Byte ranges overlap at iteration distance k iff
        #   diff + stride*k ∈ [-(size_a-1), size_b-1]
        # — checking plain address equality (diff % stride == 0) would miss
        # partial element overlaps, and floor-dividing before taking the
        # absolute value mishandles descending (negative-stride) loops.
        w_lo = -(a.element_size - 1)
        w_hi = b.element_size - 1
        if stride == 0:
            # Same fixed address every iteration (e.g. z[i] in the j-loop).
            return (1, False, None) if w_lo <= diff <= w_hi else None
        best = None
        for target in range(w_lo, w_hi + 1):
            num = target - diff
            if num % stride:
                continue
            k = num // stride  # exact: sign-safe for descending loops
            if k != 0:
                best = abs(k) if best is None else min(best, abs(k))
        return None if best is None else (best, False, None)

    # Dependence enumeration --------------------------------------------------

    def loop_carried(self, loop: Loop) -> List[Dependence]:
        """All loop-carried dependencies of ``loop`` (at any nesting depth
        inside it), involving at least one store.  Memoized — estimation,
        lint, and the sanitizer all re-query the same loops.  Pairs follow
        function instruction order (``loop.blocks`` is an unordered set), so
        the result is the same in every process."""
        cached = self._carried_cache.get(loop)
        if cached is not None:
            return cached
        accesses = self.access.accesses_in(loop.blocks)
        deps: List[Dependence] = []
        for i, first in enumerate(accesses):
            for second in accesses[i:]:
                if not (first.is_store or second.is_store):
                    continue
                result = self._carried_distance(first, second, loop)
                if result is None:
                    continue
                distance, via_alias, vector = result
                source, sink = (first, second) if first.is_store else (second, first)
                if vector is not None and source is second:
                    vector = vector.flipped()
                deps.append(
                    Dependence(
                        source, sink, loop, _classify(source, sink),
                        distance, via_alias, vector,
                    )
                )
        self._carried_cache[loop] = deps
        return deps

    def has_loop_carried_dependence(self, loop: Loop) -> bool:
        return bool(self.loop_carried(loop))

    def recurrence_deps(self, loop: Loop) -> List[Dependence]:
        """Flow (store→load) dependencies only — the ones that create true
        recurrences bounding the pipeline initiation interval."""
        return [d for d in self.loop_carried(loop) if d.kind == "flow"]

    def restrict_model_misses(self, loop: Loop) -> List[Dependence]:
        """Dependences of ``loop`` that the historical blanket-``restrict``
        model would have dropped — i.e. real may-alias conflicts between
        distinct pointers.  Empty when the two models agree."""
        if self.assume_restrict:
            return []
        return [d for d in self.loop_carried(loop) if d.via_alias]
