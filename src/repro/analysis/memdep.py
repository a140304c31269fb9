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
Accesses whose offset SCEV is unanalyzable are conservatively assumed to
conflict too.

The historical blanket-``restrict`` model (distinct pointer arguments never
alias) survives only as the sanitizer's ``alias`` injection, which drops
exactly the ``via_alias`` dependences (see ``docs/diagnostics.md``).
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


def _count_tier(tier: str) -> None:
    """Telemetry: which decision tier settled one access pair.

    Tiers: ``base_disjoint`` / ``alias`` (points-to verdicts on distinct
    bases), ``unknown_base`` (an unresolved base, dependence assumed),
    ``vector`` (the affine multi-subscript test decided a same-base pair)
    and ``conservative`` (the test could not, dependence assumed).
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
    :class:`repro.dataflow.interval.IntervalAnalysis`) supplies the proven
    loop trip bounds and constant symbols the affine test reads.  Every
    same-base pair is decided by the multi-subscript
    :class:`repro.analysis.dependence.DependenceTester`, which yields proven
    minimal distances and per-level dependence vectors; a pair it cannot
    decide is carried with unknown distance.
    """

    def __init__(
        self,
        access_analysis: AccessPatternAnalysis,
        points_to=None,
        intervals=None,
    ):
        self.access = access_analysis
        self.loop_info = access_analysis.loop_info
        self.points_to = points_to
        #: The function's one subscript resolver, shared with banking and
        #: reuse through :class:`repro.analysis.facts.FunctionContext`.
        self.resolver = SubscriptResolver(self.loop_info, intervals)
        self.tester = DependenceTester(self.resolver)
        self._carried_cache: dict = {}

    # Base-object disambiguation ---------------------------------------------

    def bases_may_overlap(self, a: AccessInfo, b: AccessInfo) -> Optional[bool]:
        """None = unknown bases (conservative), True/False otherwise."""
        if a.base is None or b.base is None:
            return None
        if a.base is b.base:
            return True
        if _distinct_allocations(a.base, b.base):
            return False
        if self.points_to is not None:
            return self.points_to.may_alias(a.base, b.base)
        return True  # distinct pointers, no facts: assume overlap

    def _carried_distance(
        self, a: AccessInfo, b: AccessInfo, loop: Loop
    ) -> Optional[tuple]:
        """Decide whether accesses ``a`` and ``b`` conflict across iterations.

        Returns None for "no loop-carried dependence", or ``(distance,
        via_alias, vector)`` where distance may itself be None for "carried
        with unknown distance" and ``vector`` is the affine dependence
        vector when the multi-subscript test decided the pair.
        """
        overlap = self.bases_may_overlap(a, b)
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
        # Same base: the multi-subscript affine test decides, or the pair
        # stays carried with unknown distance.
        verdict = self.tester.test_pair(a, b, loop)
        if verdict is None:
            _count_tier("conservative")
            return (None, False, None)
        _count_tier("vector")
        if verdict.independent:
            return None
        return (verdict.distance, False, verdict.vector)

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
