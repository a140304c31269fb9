"""Affine loop-nest dependence analysis (paper §III-B, §IV-B).

Exact multi-subscript dependence testing for pairs of accesses whose byte
offsets are affine recurrences over the enclosing loop nest.  The classic
test hierarchy — ZIV, strong/weak SIV, GCD, and Banerjee bounds — is
implemented on one uniform engine: *residue-lattice sets*.

For a pair of accesses ``a``/``b`` off the same base object the byte
distance between two dynamic instances is

    addr_a − addr_b  =  δ0  +  Σ_k  c_k·i_k − c'_k·i'_k

where ``δ0`` is the constant difference of the residual (loop-invariant)
offsets, ``c_k``/``c'_k`` are the per-loop byte coefficients and
``i_k``/``i'_k`` the two instances' iteration numbers.  The instances
conflict iff that distance lands in the byte-overlap window
``W = [−(size_a−1), size_b−1]``.

Each contribution is over-approximated by a **residue-lattice set**
``{x ≡ r (mod g), lo ≤ x ≤ hi}``; Minkowski sums of such sets stay in the
family (gcd of strides, sum of bounds).  The congruence component is the
GCD test, the bounds component the Banerjee test, and when no
over-approximation occurs (flagged per set) the result is *exact* —
subsuming ZIV (all coefficients zero) and SIV (single nonzero level).

For each loop level the engine solves for the feasible iteration
differences ``m = i_a − i_b`` by enumerating the (small) window ``W`` and
solving one linear congruence with interval bounds per window byte.  The
result is a :class:`DependenceVector` with a per-level direction
(``<``/``=``/``>``/``*``) and the **proven minimal carried distance** —
a *lower bound* on every realizable carried distance, which is the
orientation all three consumers need:

* recurrence II = ``ceil(latency / distance)`` stays an upper bound,
* unroll by factor ``F`` is legal when the claimed distance ≥ ``F``,
* the runtime sanitizer checks every *observed* distance ≥ the claim.

Subscripts, constants and loop trip bounds all come from the function's
:class:`~repro.analysis.access_patterns.SubscriptResolver`, which reads
the interval analysis
(:meth:`repro.dataflow.interval.IntervalAnalysis.static_trip_bound`);
unknown bounds degrade gracefully to unbounded lattices (the congruence
still prunes).  Symbolic-but-constant strides (``A[i*n + j]`` with a
provably constant ``n``) are resolved through the same interval facts.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..telemetry import current as current_telemetry
from .access_patterns import AccessInfo, SubscriptResolver
from .loops import Loop
from .scalar_evolution import scev_sub


def _floor_div(a: int, b: int) -> int:
    return a // b  # Python floor division


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class LatticeSet:
    """``{x : x ≡ r (mod g), lo ≤ x ≤ hi}`` with ``g == 0`` for a singleton.

    ``lo``/``hi`` of None mean unbounded; for ``g > 0`` the bounds are kept
    tightened to actual elements (``lo ≡ hi ≡ r (mod g)``).  ``exact`` marks
    that the set is precisely the represented contribution (no gcd/interval
    coarsening happened while building it).
    """

    __slots__ = ("g", "r", "lo", "hi", "exact")

    def __init__(self, g: int, r: int, lo: Optional[int], hi: Optional[int], exact: bool):
        self.g = g
        self.r = r
        self.lo = lo
        self.hi = hi
        self.exact = exact

    @staticmethod
    def singleton(value: int) -> "LatticeSet":
        return LatticeSet(0, value, value, value, True)

    @staticmethod
    def make(g: int, r: int, lo: Optional[int], hi: Optional[int], exact: bool):
        """Normalized constructor; returns None for a provably empty set."""
        if g == 0:
            if (lo is not None and r < lo) or (hi is not None and r > hi):
                return None
            return LatticeSet(0, r, r, r, exact)
        r %= g
        if lo is not None:
            lo = lo + ((r - lo) % g)
        if hi is not None:
            hi = hi - ((hi - r) % g)
        if lo is not None and hi is not None:
            if lo > hi:
                return None
            if lo == hi:
                return LatticeSet(0, lo, lo, lo, exact)
        return LatticeSet(g, r, lo, hi, exact)

    @staticmethod
    def index_range(coeff: int, trip: Optional[int]) -> "LatticeSet":
        """``{coeff·i : 0 ≤ i ≤ trip−1}`` (unbounded ``i`` when trip None).

        An unknown trip bound over-approximates the true (finite) iteration
        domain, so the result is only *exact* when the bound is known."""
        if coeff == 0:
            return LatticeSet.singleton(0)
        if trip is not None and trip <= 1:
            return LatticeSet.singleton(0)
        reach = None if trip is None else coeff * (trip - 1)
        lo, hi = (0, reach) if coeff > 0 else (reach, 0)
        made = LatticeSet.make(abs(coeff), 0, lo, hi, trip is not None)
        assert made is not None
        return made

    def add(self, other: "LatticeSet") -> Optional["LatticeSet"]:
        """Minkowski sum.  Exact when one side is a singleton or the strides
        agree (sum of two same-step progressions is a same-step progression);
        otherwise over-approximate via the stride gcd."""
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        exact = self.exact and other.exact
        if self.g == 0 and other.g == 0:
            return LatticeSet.make(0, self.r + other.r, lo, hi, exact)
        if self.g == 0 or other.g == 0 or self.g == other.g:
            g = max(self.g, other.g) if self.g == 0 or other.g == 0 else self.g
        else:
            g = math.gcd(self.g, other.g)
            exact = False
        return LatticeSet.make(g, self.r + other.r, lo, hi, exact)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        tag = "" if self.exact else "~"
        return f"{tag}{{x ≡ {self.r} (mod {self.g}), {lo}..{hi}}}"


class LevelEntry:
    """One dependence-vector component.

    ``distance`` is the proven minimal ``|i_src − i_snk|`` over conflicting
    instance pairs in *different* iterations of ``loop`` (None when only
    same-iteration conflicts exist).  ``direction`` relates source to sink
    iteration: ``<`` source earlier, ``=`` same, ``>`` source later, ``*``
    mixed.  ``exact`` marks that no lattice coarsening occurred, so the
    distance is attained within the analyzed iteration domain.
    """

    __slots__ = ("loop", "distance", "direction", "exact")

    def __init__(self, loop: Loop, distance: Optional[int], direction: str, exact: bool):
        self.loop = loop
        self.distance = distance
        self.direction = direction
        self.exact = exact

    def flipped(self) -> "LevelEntry":
        direction = {"<": ">", ">": "<"}.get(self.direction, self.direction)
        return LevelEntry(self.loop, self.distance, direction, self.exact)

    def __str__(self) -> str:
        if self.direction == "=":
            return "="
        if self.distance is None:
            return self.direction
        return f"{self.direction}{self.distance}"


class DependenceVector:
    """Per-level dependence facts for one access pair, outermost-first over
    the common loops of the queried nest."""

    __slots__ = ("entries",)

    def __init__(self, entries: List[LevelEntry]):
        self.entries = tuple(entries)

    @property
    def exact(self) -> bool:
        return all(entry.exact for entry in self.entries)

    def flipped(self) -> "DependenceVector":
        return DependenceVector([entry.flipped() for entry in self.entries])

    def __str__(self) -> str:
        return "(" + ", ".join(str(entry) for entry in self.entries) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DepVector {self}>"


class PairTestResult:
    """Outcome of the affine test for one access pair at one query loop."""

    __slots__ = ("independent", "distance", "exact", "vector")

    def __init__(
        self,
        independent: bool,
        distance: Optional[int] = None,
        exact: bool = False,
        vector: Optional[DependenceVector] = None,
    ):
        self.independent = independent
        self.distance = distance
        self.exact = exact
        self.vector = vector


INDEPENDENT = PairTestResult(independent=True)


class DependenceTester:
    """Affine dependence testing over one function's loop nest.

    ``resolver`` (the function's :class:`SubscriptResolver`) supplies each
    access's affine subscript, proven loop trip bounds — the Banerjee
    ranges — and symbolic offsets that are provably constant.  Without
    interval facts the engine still runs with unbounded lattices.
    """

    def __init__(self, resolver: SubscriptResolver):
        self.resolver = resolver

    # Pair testing ------------------------------------------------------------

    def test_pair(
        self, a: AccessInfo, b: AccessInfo, query: Loop
    ) -> Optional[PairTestResult]:
        """Test accesses ``a``/``b`` (both inside ``query``) for cross-
        iteration conflicts of ``query``.  None = undecided (the caller
        keeps the pair carried with unknown distance); otherwise a definite
        verdict whose distances are sound lower bounds."""
        verdict = self._test_pair(a, b, query)
        tele = current_telemetry()
        if tele.enabled:
            tele.count("dependence.vector.pairs_tested")
            if verdict is not None:
                tele.count("dependence.vector.pairs_decided")
                if verdict.independent:
                    tele.count("dependence.vector.independent")
                elif verdict.exact:
                    tele.count("dependence.vector.exact")
        return verdict

    def _test_pair(
        self, a: AccessInfo, b: AccessInfo, query: Loop
    ) -> Optional[PairTestResult]:
        if a.base is None or a.base is not b.base:
            return None
        if a.inst.parent not in query.blocks or b.inst.parent not in query.blocks:
            return None
        fa = self.resolver.full(a)
        fb = self.resolver.full(b)
        if fa is None or fb is None:
            return None
        delta = self.resolver.const(scev_sub(fa.residual, fb.residual))
        if delta is None:
            return None

        common = self._common_levels(a, b, query)
        common_set = set(common)
        fixed = LatticeSet.singleton(0)
        frozen_differs = False
        for level in set(fa.coeffs) | set(fb.coeffs):
            ca = fa.coeffs.get(level, 0)
            cb = fb.coeffs.get(level, 0)
            if level in common_set:
                continue
            if not (level is query or query.contains_loop(level)):
                # Frozen while ``query`` runs: both instances observe the
                # same (unknown) index, so equal coefficients cancel.
                if ca == cb:
                    continue
                if not level.contains_loop(query):
                    return None
                # An enclosing level with different coefficients shifts
                # every instance pair by one (c_a − c_b)·i over the level's
                # range.  That range forgets which execution of ``query``
                # each shift belongs to, so only "independent" is proven.
                frozen_differs = True
                fixed = fixed.add(
                    LatticeSet.index_range(ca - cb, self.resolver.trip(level))
                )
                if fixed is None:
                    return INDEPENDENT
                continue
            in_a = a.inst.parent in level.blocks
            in_b = b.inst.parent in level.blocks
            if (ca and not in_a) or (cb and not in_b):
                return None  # recurrence observed past its loop's exit
            term = LatticeSet.index_range(ca - cb, self.resolver.trip(level))
            fixed = fixed.add(term)
            if fixed is None:
                return INDEPENDENT

        # Byte ranges [A, A+size_a) and [B, B+size_b) overlap iff
        # A − B lands in [−(size_a−1), size_b−1].
        w_lo = -(a.element_size - 1)
        w_hi = b.element_size - 1

        entries: List[LevelEntry] = []
        query_entry: Optional[LevelEntry] = None
        for level in common:
            ca = fa.coeffs.get(level, 0)
            cb = fb.coeffs.get(level, 0)
            rest: Optional[LatticeSet] = fixed
            for other in common:
                if other is level:
                    continue
                oa = fa.coeffs.get(other, 0)
                ob = fb.coeffs.get(other, 0)
                trip = self.resolver.trip(other)
                term = LatticeSet.index_range(oa, trip).add(
                    LatticeSet.index_range(-ob, trip)
                )
                rest = None if term is None or rest is None else rest.add(term)
            if rest is None:
                return INDEPENDENT
            coeff = ca
            level_exact = True
            if ca != cb:
                # c_a·i − c_b·i' = c_a·m + (c_a − c_b)·i' with m = i − i';
                # the i' range loses its correlation with m: inexact.
                extra = LatticeSet.index_range(ca - cb, self.resolver.trip(level))
                rest = rest.add(extra)
                if rest is None:
                    return INDEPENDENT
                level_exact = False
            trip = self.resolver.trip(level)
            m_bound = None if trip is None else max(0, trip - 1)
            zero, min_pos, min_neg = self._solve_level(
                coeff, delta, rest, w_lo, w_hi, m_bound
            )
            if not zero and min_pos is None and min_neg is None:
                return INDEPENDENT  # no instance pair can ever overlap
            level_exact = level_exact and m_bound is not None
            entry = self._entry(level, zero, min_pos, min_neg, rest.exact and level_exact)
            entries.append(entry)
            if level is query:
                query_entry = entry

        if query_entry is None:  # pragma: no cover - query always common
            return None
        if query_entry.distance is None:
            return INDEPENDENT  # same-iteration overlap only: not carried
        if frozen_differs:
            return None
        return PairTestResult(
            independent=False,
            distance=query_entry.distance,
            exact=query_entry.exact,
            vector=DependenceVector(entries),
        )

    # Internals ---------------------------------------------------------------

    def _common_levels(self, a: AccessInfo, b: AccessInfo, query: Loop) -> List[Loop]:
        """Loops enclosing both accesses, from ``query`` inward."""
        chain: List[Loop] = []
        loop = self.resolver.loop_info.innermost_loop(a.inst.parent)
        while loop is not None:
            if loop is query or query.contains_loop(loop):
                if b.inst.parent in loop.blocks:
                    chain.append(loop)
            loop = loop.parent
        chain.reverse()  # outermost (== query) first
        return chain

    @staticmethod
    def _entry(
        loop: Loop,
        zero: bool,
        min_pos: Optional[int],
        min_neg: Optional[int],
        exact: bool,
    ) -> LevelEntry:
        # m = i_a − i_b; with ``a`` as source, m < 0 means source-earlier.
        signs = (min_neg is not None, zero, min_pos is not None)
        if signs == (True, False, False):
            direction = "<"
        elif signs == (False, True, False):
            direction = "="
        elif signs == (False, False, True):
            direction = ">"
        else:
            direction = "*"
        magnitudes = [m for m in (min_pos, min_neg) if m is not None]
        distance = min(magnitudes) if magnitudes else None
        return LevelEntry(loop, distance, direction, exact)

    @staticmethod
    def _solve_level(
        coeff: int,
        delta: int,
        rest: LatticeSet,
        w_lo: int,
        w_hi: int,
        m_bound: Optional[int] = None,
    ) -> Tuple[bool, Optional[int], Optional[int]]:
        """Feasible iteration differences ``m`` with
        ``coeff·m + s + delta ∈ [w_lo, w_hi]`` for some ``s ∈ rest`` and
        ``|m| ≤ m_bound`` (the level's trip count minus one, when proven).

        Returns ``(zero_feasible, min_positive_m, min_negative_magnitude)``.
        Enumerates the overlap window (≤ size_a + size_b − 1 bytes) and
        solves one linear congruence with interval bounds per byte.
        """
        zero = False
        min_pos: Optional[int] = None
        min_neg: Optional[int] = None
        for target in range(w_lo, w_hi + 1):
            t = target - delta  # need coeff·m + s == t
            if coeff == 0:
                # Feasibility is independent of m: every |m| ≤ bound works.
                feasible = (
                    t == rest.r
                    if rest.g == 0
                    else (t - rest.r) % rest.g == 0
                    and (rest.lo is None or t >= rest.lo)
                    and (rest.hi is None or t <= rest.hi)
                )
                if feasible:
                    zero = True
                    if m_bound is None or m_bound >= 1:
                        min_pos = 1
                        min_neg = 1
                continue
            if rest.g == 0:
                num = t - rest.r
                if num % coeff:
                    continue
                m = num // coeff
                if m_bound is not None and abs(m) > m_bound:
                    continue
                if m == 0:
                    zero = True
                elif m > 0:
                    min_pos = m if min_pos is None else min(min_pos, m)
                else:
                    min_neg = -m if min_neg is None else min(min_neg, -m)
                continue
            g, r, lo, hi = rest.g, rest.r, rest.lo, rest.hi
            e = math.gcd(coeff, g)
            if (t - r) % e:
                continue  # GCD test: congruence unsolvable
            period = g // e
            if period == 1:
                m0 = 0
            else:
                inv = pow((coeff // e) % period, -1, period)
                m0 = (((t - r) // e) * inv) % period
            # Banerjee bounds: s = t − coeff·m must stay within [lo, hi].
            if coeff > 0:
                m_lo = None if hi is None else _ceil_div(t - hi, coeff)
                m_hi = None if lo is None else _floor_div(t - lo, coeff)
            else:
                m_lo = None if lo is None else _ceil_div(t - lo, coeff)
                m_hi = None if hi is None else _floor_div(t - hi, coeff)
            if m_bound is not None:
                m_lo = -m_bound if m_lo is None else max(m_lo, -m_bound)
                m_hi = m_bound if m_hi is None else min(m_hi, m_bound)
            if m_lo is not None and m_hi is not None and m_lo > m_hi:
                continue
            if m0 == 0 and (m_lo is None or m_lo <= 0) and (m_hi is None or m_hi >= 0):
                zero = True
            start = 1 if m_lo is None else max(1, m_lo)
            m = start + ((m0 - start) % period)
            if m_hi is None or m <= m_hi:
                min_pos = m if min_pos is None else min(min_pos, m)
            end = -1 if m_hi is None else min(-1, m_hi)
            m = end - ((end - m0) % period)
            if m_lo is None or m >= m_lo:
                min_neg = -m if min_neg is None else min(min_neg, -m)
        return zero, min_pos, min_neg
