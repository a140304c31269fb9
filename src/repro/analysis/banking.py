"""Static scratchpad bank-conflict analysis (paper §III-C).

A scratchpad group that feeds ``b`` parallel lanes is only as parallel as
its banking scheme: the unrolled replicas of one access instruction issue
in the same cycle slot, and they proceed concurrently only when every
replica lands in a *distinct* bank.  This module proves that property
statically instead of assuming it.

For every group and every candidate scheme (``cyclic`` and ``block``,
bank count ``b`` in powers of two up to the lane count) the analysis

* takes the SCEV-derived affine byte offset of each access,
* resolves the per-loop coefficients of the unrolled loops (constants, or
  symbolic steps resolved through interval analysis),
* enumerates the pairwise offset deltas of the simultaneous lane replicas
  (``delta = sum((j - j') * coeff_L)`` over the unrolled loops), and
* decides the three-point verdict lattice::

      conflict-free  —  every lane pair provably maps to distinct banks
      conflicted     —  some lane pair provably shares a bank
      unknown        —  neither direction provable (non-affine subscript,
                        unresolvable stride, missing bounds)

Cyclic schemes (``bank = (offset // word) mod b``) are decided exactly by
GCD/residue reasoning: the lane delta is a compile-time constant, so its
word residue mod ``b`` either is or is not zero.  Block schemes
(``bank = offset // block_bytes``) are proven conflict-free when every
pairwise delta spans at least one full block (alignment-independent), and
proven conflicted by concretely evaluating the first unrolled slot when
the residual offset and interval-proven trip bounds pin it down.

The verdict deliberately covers only the replicas of a *single* access
instruction: cross-instruction collisions within a slot are absorbed by
the dual-ported banks and serialized by the scheduler's port table, so
they are a throughput question, not a correctness one.  Broadcast lanes
(equal addresses) of a load never conflict; equal-address store lanes
always do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import GlobalVariable
from ..telemetry import current as current_telemetry
from .access_patterns import AccessInfo, SubscriptResolver
from .loops import Loop

#: Verdict lattice values.
CONFLICT_FREE = "conflict-free"
CONFLICTED = "conflicted"
UNKNOWN = "unknown"

#: How many unrolled slots the concrete block-scheme enumeration inspects
#: before giving up (a real conflict almost always appears in the first
#: few slots; the cap keeps the analysis O(1) per scheme).
SLOT_ENUM_CAP = 64

#: Unroll factors :func:`probe_function` probes (where legal).
PROBE_FACTORS = (2, 4, 8)


@dataclass(frozen=True)
class BankingScheme:
    """One candidate partitioning: ``cyclic`` interleaves consecutive words
    round-robin across ``banks``; ``block`` gives each bank one contiguous
    ``footprint / banks`` slice."""

    kind: str  # "cyclic" | "block"
    banks: int

    @property
    def label(self) -> str:
        return f"{self.kind}-{self.banks}"

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "banks": self.banks}


@dataclass(frozen=True)
class SchemeVerdict:
    """The decision for one scheme, with a human-readable justification."""

    scheme: BankingScheme
    status: str  # CONFLICT_FREE | CONFLICTED | UNKNOWN
    reason: str

    def to_dict(self) -> Dict:
        return {
            "scheme": self.scheme.label,
            "status": self.status,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class GroupAccess:
    """One member access plus the unrolled loops that replicate it.

    ``unrolled`` lists ``(loop, factor)`` pairs for every enclosing loop
    the configuration unrolls; the access is replicated into
    ``prod(factors)`` simultaneous lanes.
    """

    info: AccessInfo
    unrolled: Tuple = ()

    @property
    def lanes(self) -> int:
        lanes = 1
        for _, factor in self.unrolled:
            lanes *= max(1, factor)
        return lanes


@dataclass
class BankingVerdict:
    """Per-group decision: every candidate scheme's status plus the
    cheapest (fewest banks; cyclic preferred on ties) proven
    conflict-free scheme, or None when nothing is provable."""

    base: object
    lanes: int
    word_bytes: int
    footprint_bytes: Optional[int]
    schemes: List[SchemeVerdict] = field(default_factory=list)
    best: Optional[BankingScheme] = None

    @property
    def proven(self) -> bool:
        return self.best is not None

    def block_bytes(self, banks: int) -> Optional[int]:
        """Bytes per bank of a ``block`` scheme with ``banks`` banks: the
        proven footprint split evenly in whole words, or None without a
        proven footprint."""
        if self.footprint_bytes is None:
            return None
        words = -(-self.footprint_bytes // self.word_bytes)
        return self.word_bytes * max(1, -(-words // banks))

    def status_of(self, scheme: BankingScheme) -> str:
        for entry in self.schemes:
            if entry.scheme == scheme:
                return entry.status
        return UNKNOWN

    @property
    def base_name(self) -> str:
        return getattr(self.base, "name", None) or str(self.base)

    def to_dict(self) -> Dict:
        return {
            "base": self.base_name,
            "lanes": self.lanes,
            "word_bytes": self.word_bytes,
            "footprint_bytes": self.footprint_bytes,
            "schemes": [entry.to_dict() for entry in self.schemes],
            "best": self.best.label if self.best else None,
        }


@dataclass
class _Member:
    """Pre-resolved lane geometry of one group access."""

    access: GroupAccess
    #: Sorted relative byte offsets of the lane replicas (duplicates
    #: collapse for loads only), or None when a stride is unresolvable.
    offsets: Optional[List[int]] = None
    #: Constant residual offset anchoring the lanes inside the buffer
    #: (all non-unrolled loops at iteration 0), or None.
    anchor: Optional[int] = None
    #: Signed byte coefficient per unrolled loop.
    coeffs: Optional[Dict[Loop, int]] = None
    why_unknown: Optional[str] = None

    @property
    def is_store(self) -> bool:
        return self.access.info.is_store


class BankingAnalysis:
    """Decides :class:`BankingVerdict` for scratchpad groups.

    ``resolver`` (the function's :class:`SubscriptResolver`) supplies each
    access's coefficients, anchor and trip bounds; without interval facts
    only literal-constant strides decide.
    """

    def __init__(self, resolver: SubscriptResolver):
        self.resolver = resolver
        self._cache: Dict = {}

    # Public API ------------------------------------------------------------------

    def candidate_schemes(self, lanes: int) -> List[BankingScheme]:
        """Cyclic and block schemes for b in powers of two up to ``lanes``,
        cheapest first (cyclic preferred at equal bank count)."""
        schemes: List[BankingScheme] = []
        banks = 1
        while banks <= max(1, lanes):
            schemes.append(BankingScheme("cyclic", banks))
            if banks > 1:
                schemes.append(BankingScheme("block", banks))
            banks *= 2
        return schemes

    def verdict(
        self,
        base: object,
        members: Sequence[GroupAccess],
        footprint_bytes: Optional[int] = None,
    ) -> BankingVerdict:
        """Decide every candidate scheme for one scratchpad group."""
        key = (
            base,
            tuple((m.info.inst, m.unrolled) for m in members),
            footprint_bytes,
        )
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        lanes = max([m.lanes for m in members] or [1])
        word = 0
        for member in members:
            word = math.gcd(word, member.info.element_size)
        word = max(1, word)
        if footprint_bytes is None:
            footprint_bytes = self._static_footprint(members)

        resolved = [self._resolve_member(m) for m in members]
        verdict = BankingVerdict(
            base=base, lanes=lanes, word_bytes=word,
            footprint_bytes=footprint_bytes,
        )
        for scheme in self.candidate_schemes(lanes):
            status, reason = self._scheme_status(scheme, resolved, verdict)
            verdict.schemes.append(SchemeVerdict(scheme, status, reason))
            if status == CONFLICT_FREE and verdict.best is None:
                verdict.best = scheme

        tele = current_telemetry()
        if tele.enabled:
            tele.count("banking.groups")
            tele.count(
                "banking.groups_proven" if verdict.proven
                else "banking.groups_serialized"
            )
            for entry in verdict.schemes:
                tele.count(f"banking.scheme_{entry.status.replace('-', '_')}")
        self._cache[key] = verdict
        return verdict

    # Member geometry -------------------------------------------------------------

    def _resolve_member(self, member: GroupAccess) -> _Member:
        subscript = self.resolver.of(member.info)
        anchor = subscript.anchor if subscript is not None else None
        unrolled = [(l, f) for l, f in member.unrolled if f > 1]
        if not unrolled:
            return _Member(member, [0], anchor, {})
        if subscript is None:
            return _Member(member, why_unknown="non-affine subscript")
        # The residual symbolic part must be invariant in each unrolled
        # loop: an indirect subscript like A[idx[i]] is affine *in the
        # loaded symbol* with no addrec on the loop, and treating its
        # coefficient as 0 would "prove" a broadcast that varies every
        # iteration.
        for loop, _ in unrolled:
            if not subscript.residual.is_invariant_in(loop):
                return _Member(member, why_unknown=(
                    f"subscript varies non-affinely in loop {loop.name}"
                ))
        coeffs: Dict[Loop, int] = {}
        for loop, _ in unrolled:
            # No addrec level on this loop: the affine nest varies only
            # through other loops, so the coefficient is exactly 0.  Only
            # the unrolled loops need resolving.
            value = subscript.coeffs.get(loop, 0)
            if value is None:
                return _Member(member, why_unknown=(
                    f"unresolvable stride in loop {loop.name}"
                ))
            coeffs[loop] = value

        offsets = []
        for vector in itertools.product(*[range(f) for _, f in unrolled]):
            delta = 0
            for (loop, _), index in zip(unrolled, vector):
                delta += index * coeffs[loop]
            offsets.append(delta)
        if not member.info.is_store:
            offsets = sorted(set(offsets))  # equal-address loads broadcast
        else:
            offsets = sorted(offsets)
        return _Member(member, offsets, anchor, coeffs)

    def _static_footprint(
        self, members: Sequence[GroupAccess]
    ) -> Optional[int]:
        """Interval-proven byte span of the whole group, or None."""
        if self.resolver.intervals is None or not members:
            return None
        extents = [self.resolver.extent(member.info) for member in members]
        if None in extents:
            return None
        lo = min(start for start, _ in extents)
        hi = max(end for _, end in extents)
        return hi - lo if hi > lo else None

    # Scheme decision -------------------------------------------------------------

    def _scheme_status(
        self,
        scheme: BankingScheme,
        resolved: Sequence[_Member],
        verdict: BankingVerdict,
    ) -> Tuple[str, str]:
        block_bytes = None
        if scheme.kind == "block":
            block_bytes = verdict.block_bytes(scheme.banks)
            if block_bytes is None:
                return UNKNOWN, "block scheme needs a proven footprint"

        statuses: List[Tuple[str, str]] = []
        for member in resolved:
            statuses.append(
                self._member_status(
                    scheme, member, verdict.word_bytes, block_bytes
                )
            )
        for status, reason in statuses:
            if status == CONFLICTED:
                return status, reason
        for status, reason in statuses:
            if status == UNKNOWN:
                return status, reason
        return CONFLICT_FREE, "all lane pairs land in distinct banks"

    def _member_status(
        self,
        scheme: BankingScheme,
        member: _Member,
        word: int,
        block_bytes: Optional[int],
    ) -> Tuple[str, str]:
        name = member.access.info.inst.name
        if member.offsets is None:
            return UNKNOWN, f"{name}: {member.why_unknown}"
        if len(member.offsets) <= 1:
            # Invariant (or fully broadcast) lanes: loads replicate the
            # same word to every lane; a lone store lane never conflicts.
            return CONFLICT_FREE, f"{name}: single distinct lane address"
        if member.is_store and len(set(member.offsets)) < len(member.offsets):
            return CONFLICTED, f"{name}: store lanes share an address"
        lanes = len(member.offsets)
        if lanes > scheme.banks:
            return (
                CONFLICTED,
                f"{name}: {lanes} distinct lanes into {scheme.banks} banks "
                "(pigeonhole)",
            )

        if scheme.kind == "cyclic":
            return self._cyclic_status(scheme, member, word, name)
        return self._block_status(scheme, member, block_bytes, name)

    def _cyclic_status(
        self, scheme: BankingScheme, member: _Member, word: int, name: str
    ) -> Tuple[str, str]:
        # bank = (offset // word) mod b.  Lane deltas are compile-time
        # constants, so the bank *difference* of each pair is a constant:
        # the residue test is exact in both directions.  A common shift of
        # all lanes (outer loops, residual) never changes pairwise
        # distinctness, so no anchor is needed.
        for a, b in itertools.combinations(member.offsets, 2):
            delta = b - a
            if delta % word:
                return (
                    UNKNOWN,
                    f"{name}: lane delta {delta} not a multiple of the "
                    f"{word}-byte bank word",
                )
            if (delta // word) % scheme.banks == 0:
                return (
                    CONFLICTED,
                    f"{name}: lanes {delta} bytes apart share bank "
                    f"(delta of {delta // word} words ≡ 0 mod "
                    f"{scheme.banks})",
                )
        return CONFLICT_FREE, f"{name}: pairwise residues distinct"

    def _block_status(
        self,
        scheme: BankingScheme,
        member: _Member,
        block_bytes: int,
        name: str,
    ) -> Tuple[str, str]:
        # bank = offset // block_bytes.  A pair at distance >= block_bytes
        # is in distinct blocks for *every* base alignment; that is the
        # only alignment-independent conflict-free argument.
        if all(
            b - a >= block_bytes
            for a, b in itertools.combinations(member.offsets, 2)
        ):
            return (
                CONFLICT_FREE,
                f"{name}: lane deltas ≥ {block_bytes}-byte blocks",
            )
        # Conflict proof: concretely place the lanes at iteration 0 of
        # every non-unrolled loop (feasible whenever the loops run) and
        # sweep the first slots of the unrolled loops within the
        # interval-proven trip bound.
        anchor = member.anchor
        if anchor is not None:
            slots = self._enum_slots(member)
            for slot_shift in slots:
                seen: Dict[int, int] = {}
                for offset in member.offsets:
                    position = anchor + slot_shift + offset
                    index = position // block_bytes
                    if index in seen and seen[index] != position:
                        return (
                            CONFLICTED,
                            f"{name}: lanes at bytes {seen[index]} and "
                            f"{position} share {block_bytes}-byte block "
                            f"{index}",
                        )
                    seen[index] = position
        return (
            UNKNOWN,
            f"{name}: lane deltas smaller than a {block_bytes}-byte block; "
            "no concrete slot proves a collision",
        )

    def _enum_slots(self, member: _Member) -> List[int]:
        """Byte shifts of the first unrolled slots (slot 0 always)."""
        shifts = [0]
        unrolled = [(l, f) for l, f in member.access.unrolled if f > 1]
        if len(unrolled) != 1 or member.coeffs is None:
            return shifts
        loop, factor = unrolled[0]
        trip = self.resolver.trip(loop)
        if trip is None or trip < factor:
            return shifts
        slot_step = member.coeffs.get(loop, 0) * factor
        slots = min(trip // factor, SLOT_ENUM_CAP)
        for k in range(1, slots):
            shifts.append(k * slot_step)
        return shifts


# Whole-function probe -----------------------------------------------------------


@dataclass
class GroupProbe:
    """One (innermost loop, base, unroll factor) banking probe result."""

    function: str
    loop: Loop
    factor: int
    base: object
    accesses: List[AccessInfo]
    verdict: BankingVerdict

    def to_dict(self) -> Dict:
        return {
            "function": self.function,
            "loop": self.loop.name,
            "factor": self.factor,
            "accesses": sorted(a.inst.name for a in self.accesses),
            **self.verdict.to_dict(),
        }


def probe_function(memdep) -> List[GroupProbe]:
    """Probe every innermost loop of ``memdep``'s function: group its
    global-array accesses and decide a :class:`BankingVerdict` for each
    unroll-legal factor in :data:`PROBE_FACTORS`.  Only global arrays are
    probed, because their runtime base address is known and the sanitizer
    can check the claims.  This is the standalone entry point the CLI, the
    bench section, and the sanitizer share (the estimator drives
    :class:`BankingAnalysis` directly from its interface plans).
    """
    from ..hls.transform import legal_unroll_factors  # lazy: avoid a cycle

    access, loop_info = memdep.access, memdep.loop_info
    analysis = BankingAnalysis(memdep.resolver)
    tele = current_telemetry()
    probes: List[GroupProbe] = []
    func_name = access.func.name
    with tele.span("banking.probe", function=func_name):
        for loop in loop_info.loops:
            if not loop.is_innermost:
                continue
            trip = memdep.resolver.trip(loop)
            legal = [
                f for f in legal_unroll_factors(memdep=memdep, loop=loop,
                                                trip_count=trip)
                if f > 1 and f in PROBE_FACTORS
            ]
            if not legal:
                continue
            groups: Dict[object, List[AccessInfo]] = {}
            for info in access.accesses_in(loop.blocks):
                if not isinstance(info.base, GlobalVariable):
                    continue
                if loop_info.innermost_loop(info.inst.parent) is not loop:
                    continue
                groups.setdefault(info.base, []).append(info)
            for base, infos in groups.items():
                for factor in legal:
                    members = [
                        GroupAccess(info, ((loop, factor),))
                        for info in infos
                    ]
                    verdict = analysis.verdict(base, members)
                    probes.append(GroupProbe(
                        function=func_name, loop=loop, factor=factor,
                        base=base, accesses=list(infos), verdict=verdict,
                    ))
    probes.sort(key=lambda p: (p.function, p.loop.name,
                               p.verdict.base_name, p.factor))
    return probes
