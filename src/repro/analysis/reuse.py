"""Static inter-iteration data-reuse analysis (paper §III-C).

A scratchpad port is wasted whenever a load re-reads an element that an
access of a *recent* iteration already touched: a 3-point stencil reads
``X[i-1]`` this iteration and ``X[i]`` last iteration — the element is the
same, one iteration apart — and ``G[r] = f(G[r-2])`` reads exactly what
its own store produced two iterations ago.  Both patterns lower to a
shift-register buffer of constant depth instead of a port access.  This
module *proves* those reuse pairs instead of assuming them.

A **reuse pair** is ``(producer P, consumer C, distance d)`` on one base
object inside one innermost loop such that the consumer at iteration
``i`` always addresses the element the producer addressed at iteration
``i - d`` (``d >= 1`` a compile-time constant).  ``P`` may be a load
(*self-reuse*) or a store (*group reuse*, i.e. store-to-load
forwarding).  With SCEV-affine byte offsets ``off_X(i) = res_X + c_X·i``
(plus outer-loop terms) the decision is exact:

* every coefficient outside the query loop must match pairwise (else the
  inter-instance distance varies with the outer indices — provably not a
  constant-distance pair);
* equal query-loop coefficients ``c`` reduce the question to the SIV
  residue test ``res_P − res_C ≡ 0 (mod c)`` with
  ``d = (res_P − res_C) / c > 0`` — divisibility failure *disproves* the
  pair, never degrades it;
* ``c == 0`` is the ZIV case: equal residuals give loop-invariant reuse
  at ``d = 1``.

A proven address match is not yet a proven pair: an **intervening
store** between the producer instance and the consumer instance can
clobber the buffered element.  Every store executing in the loop is
checked against the window ``k ∈ [0, d]`` (iterations since the
producer).  Same-base affine stores decide exactly — a hit strictly
inside the window breaks the pair; a hit at ``k == 0`` is harmless only
when the store provably precedes the producer in program order (the
producer then observes/overwrites it), and a hit at ``k == d`` only when
the consumer provably precedes the store.  Differently-strided or
may-alias stores fall back to a GCD feasibility test and points-to
disjointness; anything inconclusive degrades the pair to *unknown* —
**never assumed sound**, and never exploited downstream.

Two more obligations guard the buffer lowering:

* the producer must execute every iteration (its block dominates every
  loop latch) or the buffer may be stale where the address math says it
  is fresh;
* the interval-proven trip bound must exceed ``d`` (otherwise the
  distance is never realized) and the estimator models the first ``d``
  iterations as buffer *warm-up*.

Under unrolling by ``U`` the per-iteration distance ``d`` is preserved
(the affine forms replicate uniformly), but the register chain must hold
``d + U − 1`` elements so every lane's tap exists — the lane-aware depth
the estimator prices via :class:`~repro.model.techlib.TechLibrary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import GlobalVariable
from ..telemetry import current as current_telemetry
from .access_patterns import AccessInfo, SubscriptResolver
from .loops import Loop
from .scalar_evolution import scev_sub

#: Verdict lattice values for a candidate pair.  There is deliberately no
#: "assumed" state: a pair is either proven or it is not exploited.
PROVEN = "proven"
UNKNOWN = "unknown"
BROKEN = "broken"

#: Pair kinds.
SELF_REUSE = "self"  # load fed by an earlier load
FORWARD = "forward"  # load fed by an earlier store (store-to-load)

#: Deepest shift-register chain (in register stages, lane taps included)
#: the estimator will spend on one producer; provable reuse beyond this
#: budget is reported by lint rule RU002 instead of silently dropped.
MAX_REUSE_DEPTH = 64


def _name(info: AccessInfo) -> str:
    return info.inst.name or "?"


@dataclass(frozen=True)
class ReusePair:
    """One proven pair: ``consumer`` at iteration ``i`` addresses the
    element ``producer`` addressed at iteration ``i - distance``."""

    producer: AccessInfo
    consumer: AccessInfo
    loop: Loop
    distance: int
    kind: str  # SELF_REUSE | FORWARD
    trip: Optional[int]  # interval-proven trip bound of the loop, if any

    def depth(self, lanes: int = 1) -> int:
        """Register stages needed so every unrolled lane has its tap."""
        return self.distance + max(1, lanes) - 1

    def to_dict(self) -> Dict:
        return {
            "producer": _name(self.producer),
            "consumer": _name(self.consumer),
            "distance": self.distance,
            "kind": self.kind,
            "trip": self.trip,
            "status": PROVEN,
        }


@dataclass(frozen=True)
class ReuseCandidate:
    """A candidate pair the analysis could *not* prove: ``status`` is
    UNKNOWN (undecidable — degraded, never exploited) or BROKEN (an
    intervening store provably clobbers the buffered element)."""

    producer: Optional[AccessInfo]
    consumer: AccessInfo
    status: str
    reason: str

    def to_dict(self) -> Dict:
        return {
            "producer": _name(self.producer) if self.producer else None,
            "consumer": _name(self.consumer),
            "status": self.status,
            "reason": self.reason,
        }


@dataclass
class ReuseVerdict:
    """Per (base, innermost loop) decision: every proven pair plus every
    candidate that degraded to unknown or was provably broken."""

    base: object
    loop: Loop
    pairs: List[ReusePair] = field(default_factory=list)
    unknown: List[ReuseCandidate] = field(default_factory=list)
    broken: List[ReuseCandidate] = field(default_factory=list)

    @property
    def proven(self) -> bool:
        return bool(self.pairs)

    @property
    def base_name(self) -> str:
        return getattr(self.base, "name", None) or str(self.base)

    def to_dict(self) -> Dict:
        return {
            "base": self.base_name,
            "pairs": [p.to_dict() for p in self.pairs],
            "unknown": [c.to_dict() for c in self.unknown],
            "broken": [c.to_dict() for c in self.broken],
        }


def select_buffers(
    verdict: ReuseVerdict,
    lanes: int = 1,
    max_depth: int = MAX_REUSE_DEPTH,
) -> Tuple[Dict[object, ReusePair], List[ReusePair]]:
    """Pick the exploitable pair per consumer instruction.

    Among a consumer's proven pairs the *largest* distance wins: every
    consumer then chains to the group's leading access, so one register
    chain per producer (depth = max distance + lanes − 1) serves all its
    taps.  A pair is exploitable only with a proven trip bound beyond its
    distance (bounded warm-up) and a chain within ``max_depth``; deeper
    provable pairs are returned separately (they feed lint rule RU002).
    """
    chosen: Dict[object, ReusePair] = {}
    over_budget: List[ReusePair] = []
    by_consumer: Dict[object, List[ReusePair]] = {}
    for pair in verdict.pairs:
        by_consumer.setdefault(pair.consumer.inst, []).append(pair)
    for inst, pairs in by_consumer.items():
        usable = [
            p for p in pairs
            if p.trip is not None and p.trip > p.distance
        ]
        if not usable:
            continue
        best = max(usable, key=lambda p: (p.distance, _name(p.producer)))
        if best.depth(lanes) > max_depth:
            over_budget.append(best)
        else:
            chosen[inst] = best
    return chosen, over_budget


class ReuseAnalysis:
    """Decides :class:`ReuseVerdict` for scratchpad groups.

    ``resolver`` (the function's :class:`SubscriptResolver`) supplies the
    fully resolved subscripts, constant offset differences and trip
    bounds; ``memdep`` supplies points-to disjointness for stores on other
    base objects.
    """

    def __init__(self, resolver: SubscriptResolver, memdep):
        self.resolver = resolver
        self.memdep = memdep
        self._cache: Dict = {}

    # Public API ------------------------------------------------------------------

    def verdict(
        self,
        base: object,
        loop: Loop,
        members: Sequence[AccessInfo],
        stores: Sequence[AccessInfo],
    ) -> ReuseVerdict:
        """Decide every (producer, consumer) candidate of one group.

        ``members`` are the accesses on ``base`` inside ``loop``;
        ``stores`` must list *every* store executing in the loop (any
        base — foreign stores are the may-alias breakers).
        """
        key = (
            base,
            loop,
            tuple(m.inst for m in members),
            tuple(s.inst for s in stores),
        )
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        verdict = ReuseVerdict(base=base, loop=loop)
        trip = self.resolver.trip(loop)
        for consumer in members:
            if not consumer.is_load:
                continue
            fc = self.resolver.full(consumer)
            if fc is None:
                verdict.unknown.append(ReuseCandidate(
                    None, consumer, UNKNOWN,
                    f"%{_name(consumer)}: non-affine or indirect subscript",
                ))
                continue
            for producer in members:
                self._decide_pair(
                    verdict, loop, producer, consumer, fc, stores, trip
                )

        verdict.pairs.sort(key=lambda p: (
            _name(p.consumer), p.distance, _name(p.producer)))
        for bucket in (verdict.unknown, verdict.broken):
            bucket.sort(key=lambda c: (
                _name(c.consumer),
                _name(c.producer) if c.producer else "", c.reason))

        tele = current_telemetry()
        if tele.enabled:
            tele.count("reuse.groups")
            tele.count("reuse.pairs_proven", len(verdict.pairs))
            tele.count("reuse.pairs_unknown", len(verdict.unknown))
            tele.count("reuse.pairs_broken", len(verdict.broken))
        self._cache[key] = verdict
        return verdict

    # Pair decision ---------------------------------------------------------------

    def _decide_pair(
        self, verdict, loop, producer, consumer, fc, stores, trip
    ) -> None:
        if producer.inst is consumer.inst:
            return
        if producer.element_size != consumer.element_size:
            return  # not the same element granularity
        fp = self.resolver.full(producer)
        if fp is None:
            verdict.unknown.append(ReuseCandidate(
                producer, consumer, UNKNOWN,
                f"%{_name(producer)}: non-affine or indirect subscript",
            ))
            return
        # Outside the query loop every coefficient must match, or the
        # inter-instance distance varies with the outer indices: provably
        # not a constant-distance pair (a disproof, not a degradation).
        for level in set(fp.coeffs) | set(fc.coeffs):
            if level is loop:
                continue
            if fp.coeffs.get(level, 0) != fc.coeffs.get(level, 0):
                return
        coeff = fc.coeffs.get(loop, 0)
        if fp.coeffs.get(loop, 0) != coeff:
            return
        delta = self.resolver.const(scev_sub(fp.residual, fc.residual))
        if delta is None:
            verdict.unknown.append(ReuseCandidate(
                producer, consumer, UNKNOWN,
                f"offset of %{_name(producer)} relative to "
                f"%{_name(consumer)} is not a resolvable constant",
            ))
            return
        if coeff == 0:
            # ZIV: both addresses loop-invariant — reuse from the previous
            # iteration exactly when the residuals coincide.
            if delta != 0:
                return
            distance = 1
        else:
            # SIV residue test: res_P + c·(i−d) == res_C + c·i demands
            # c·d == res_P − res_C; non-divisibility disproves the pair.
            if delta % coeff:
                return
            distance = delta // coeff
            if distance <= 0:
                return  # the "producer" runs later; the flipped candidate
                # is decided when the roles swap in the member loop
        if trip is not None and trip <= distance:
            return  # the distance is never realized inside one execution
        if not self._always_executes(loop, producer):
            verdict.unknown.append(ReuseCandidate(
                producer, consumer, UNKNOWN,
                f"%{_name(producer)} does not execute every iteration "
                f"of loop {loop.name}",
            ))
            return
        clobber = self._intervening_store(
            loop, producer, consumer, fp, coeff, distance, stores
        )
        if clobber is not None:
            status, reason = clobber
            bucket = verdict.broken if status == BROKEN else verdict.unknown
            bucket.append(ReuseCandidate(producer, consumer, status, reason))
            return
        verdict.pairs.append(ReusePair(
            producer=producer, consumer=consumer, loop=loop,
            distance=distance,
            kind=FORWARD if producer.is_store else SELF_REUSE,
            trip=trip,
        ))

    # Intervening-store scan ------------------------------------------------------

    def _intervening_store(
        self, loop, producer, consumer, fp, coeff, distance, stores
    ) -> Optional[Tuple[str, str]]:
        """None when no store can clobber the buffered element between
        the producer instance and the consumer instance; otherwise
        ``(BROKEN, why)`` for a proven clobber or ``(UNKNOWN, why)``."""
        for store in stores:
            if store.base is None:
                return (UNKNOWN,
                        f"store %{_name(store)} has an unresolved base")
            if store.base is not producer.base:
                if self.memdep.bases_may_overlap(store, producer) is False:
                    continue  # provably disjoint objects
                return (UNKNOWN,
                        f"may-alias store %{_name(store)} to "
                        f"{getattr(store.base, 'name', '?')}")
            hit = self._same_base_hit(
                loop, producer, consumer, fp, coeff, distance, store
            )
            if hit is not None:
                return hit
        return None

    def _same_base_hit(
        self, loop, producer, consumer, fp, coeff, distance, store
    ) -> Optional[Tuple[str, str]]:
        fs = self.resolver.full(store)
        if fs is None:
            return (UNKNOWN,
                    f"intervening store %{_name(store)} has a non-affine "
                    f"subscript")
        for level in set(fs.coeffs) | set(fp.coeffs):
            if level is loop:
                continue
            if fs.coeffs.get(level, 0) != fp.coeffs.get(level, 0):
                return (UNKNOWN,
                        f"store %{_name(store)} strides differently "
                        f"across the outer loops")
        delta_s = self.resolver.const(scev_sub(fs.residual, fp.residual))
        if delta_s is None:
            return (UNKNOWN,
                    f"offset of store %{_name(store)} is not a "
                    f"resolvable constant")
        c_s = fs.coeffs.get(loop, 0)
        # Byte-overlap window of the store against the buffered element:
        # addr_S − addr_E ∈ [−(size_S−1), size_E−1].
        window = range(-(store.element_size - 1), producer.element_size)
        if c_s != coeff:
            # The store drifts relative to the element.  Feasibility of
            # delta_s + (c_s−c)·m + c_s·k == t (m = producer iteration,
            # k ∈ [0, d]) is refuted by the GCD residue test; a feasible
            # congruence is only *may*-clobber, so it degrades, never
            # breaks.
            g = math.gcd(c_s - coeff, c_s)  # >= 1: the strides differ
            for target in window:
                if (target - delta_s) % g == 0:
                    return (UNKNOWN,
                            f"store %{_name(store)} may clobber the "
                            f"buffered element (GCD test inconclusive)")
            return None  # no window byte reachable: clean store
        # Equal stride: the store hits the buffered element at the exact
        # window iterations k with delta_s + c·k ∈ window.
        hits: List[int] = []
        if coeff == 0:
            if any(t == delta_s for t in window):
                hits = list(range(0, distance + 1))
        else:
            for target in window:
                if (target - delta_s) % coeff:
                    continue
                k = (target - delta_s) // coeff
                if 0 <= k <= distance:
                    hits.append(k)
        for k in sorted(set(hits)):
            if k == 0:
                if store.inst is producer.inst:
                    continue  # the recorded write itself, not a clobber
                # Store in the producer's own iteration: harmless only
                # when the producer provably comes after (observes or
                # overwrites the stored value).
                order = self._order(store.inst, producer.inst)
                if order is True:
                    continue
                if order is False:
                    return (BROKEN,
                            f"store %{_name(store)} overwrites the "
                            f"element after producer %{_name(producer)} "
                            f"in the same iteration")
                return (UNKNOWN,
                        f"program order of store %{_name(store)} and "
                        f"producer %{_name(producer)} is not provable")
            if k == distance:
                # Store in the consumer's iteration: harmless only when
                # the consumer provably reads first.
                order = self._order(consumer.inst, store.inst)
                if order is True:
                    continue
                if order is False:
                    return (BROKEN,
                            f"store %{_name(store)} overwrites the "
                            f"element before consumer "
                            f"%{_name(consumer)} reads it")
                return (UNKNOWN,
                        f"program order of store %{_name(store)} and "
                        f"consumer %{_name(consumer)} is not provable")
            if self._always_executes(loop, store):
                return (BROKEN,
                        f"store %{_name(store)} overwrites the element "
                        f"{k} iteration(s) after the producer")
            return (UNKNOWN,
                    f"conditional store %{_name(store)} may overwrite "
                    f"the element {k} iteration(s) after the producer")
        return None

    # Helpers ---------------------------------------------------------------------

    def _always_executes(self, loop: Loop, info: AccessInfo) -> bool:
        """True when the access runs on every iteration: its block
        dominates every latch, so no back edge skips it."""
        domtree = self.resolver.loop_info.domtree
        if not loop.latches:
            return False
        block = info.inst.parent
        return all(domtree.dominates(block, latch) for latch in loop.latches)

    def _order(self, first, second) -> Optional[bool]:
        """True/False when ``first`` provably precedes/follows ``second``
        in every iteration; None when the order is not decidable (the
        instructions live in different blocks)."""
        if first.parent is not second.parent or first.parent is None:
            return None
        block = first.parent.instructions
        try:
            return block.index(first) < block.index(second)
        except ValueError:  # pragma: no cover - detached instruction
            return None


# Whole-function probe -----------------------------------------------------------


@dataclass
class ReuseProbe:
    """One (innermost loop, base) reuse probe result."""

    function: str
    loop: Loop
    base: object
    accesses: List[AccessInfo]
    verdict: ReuseVerdict

    def to_dict(self) -> Dict:
        return {
            "function": self.function,
            "loop": self.loop.name,
            "accesses": sorted(_name(a) for a in self.accesses),
            **self.verdict.to_dict(),
        }


def probe_function(ctx) -> List[ReuseProbe]:
    """Probe every call-free innermost loop of ``ctx``'s function: group
    its global-array accesses and decide a :class:`ReuseVerdict` for each
    group containing at least one load.  Only global arrays are probed,
    because their runtime base address is known and the sanitizer can
    check the claims.  The CLI, the bench section and the sanitizer share
    this entry point; it reads ``ctx.reuse``, the prover the estimator
    drives from its interface plans.  Loops containing calls are skipped:
    callee stores could clobber a buffered element invisibly to the scan.
    """
    access, loop_info = ctx.access, ctx.loop_info
    tele = current_telemetry()
    probes: List[ReuseProbe] = []
    func_name = access.func.name
    with tele.span("reuse.probe", function=func_name):
        for loop in loop_info.loops:
            if not loop.is_innermost:
                continue
            if any(block.has_call for block in loop.blocks):
                continue
            infos = [
                info for info in access.accesses_in(loop.blocks)
                if loop_info.innermost_loop(info.inst.parent) is loop
            ]
            stores = [info for info in infos if info.is_store]
            groups: Dict[object, List[AccessInfo]] = {}
            for info in infos:
                if isinstance(info.base, GlobalVariable):
                    groups.setdefault(info.base, []).append(info)
            for base, members in groups.items():
                if not any(m.is_load for m in members):
                    continue
                verdict = ctx.reuse.verdict(base, loop, members, stores=stores)
                probes.append(ReuseProbe(
                    function=func_name, loop=loop, base=base,
                    accesses=list(members), verdict=verdict,
                ))
    probes.sort(key=lambda p: (p.function, p.loop.name, p.verdict.base_name))
    return probes
