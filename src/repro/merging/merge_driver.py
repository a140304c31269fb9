"""Heuristic accelerator merging over selection solutions (paper §III-E).

For every Pareto-optimal selection solution Cayman repeatedly

1. finds the pair of datapath units contained in the solution whose merge
   saves the most area,
2. merges that pair, if its saving is positive, into a reconfigurable
   datapath unit, combining their owning accelerators into one reusable
   accelerator (each member kernel keeps its own FSM; a global *Ctrl* unit
   dispatches configurations), and
3. treats the merged unit/accelerator as a normal one for further rounds,

until no positive saving remains.

The search is lazy: a pair enters the priority queue on an admissible
upper bound of its saving (:func:`~.opmatch.saving_bound`) and is matched
exactly only when that bound reaches the top, so most pairs are never
matched at all, yet every step takes the pair an exact scan of all pairs
would take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..hls.fsm import GlobalControlUnit
from ..hls.techlib import ACCELERATOR_BASE_AREA_UM2, DEFAULT_TECHLIB, TechLibrary
from ..selection.solution import Solution
from ..telemetry import current as current_telemetry
from .dfg_merge import MergedUnit, estimate_pair_saving, merge_pair
from .opmatch import MatchResult, saving_bound


@dataclass
class ReusableAccelerator:
    """One accelerator of the merged solution and the kernels it serves."""

    kernel_names: List[str]
    unit_names: List[str]

    @property
    def region_count(self) -> int:
        return len(self.kernel_names)

    @property
    def is_reusable(self) -> bool:
        return self.region_count > 1


@dataclass
class MergedSolution:
    """Result of merging one selection solution."""

    solution: Solution
    area_before: float
    area_after: float
    merge_steps: int
    accelerators: List[ReusableAccelerator] = field(default_factory=list)
    #: Final datapath-unit pool after merging (reconfigurable units included).
    units: List["MergedUnit"] = field(default_factory=list)
    #: Union-find root (accelerator group id) per unit, aligned with `units`.
    unit_groups: List[int] = field(default_factory=list)
    #: Group root per entry of `accelerators` (same id space as unit_groups).
    group_roots: List[int] = field(default_factory=list)
    #: FU area recovered specifically by width-aware matching: saving the
    #: legacy binary 32/64 bucketing could not have realized.
    width_recovered_area: float = 0.0

    @property
    def saving(self) -> float:
        return self.area_before - self.area_after

    @property
    def saving_pct(self) -> float:
        if self.area_before <= 0:
            return 0.0
        return 100.0 * self.saving / self.area_before

    @property
    def saved_seconds(self) -> float:
        return self.solution.saved_seconds

    def speedup(self, total_seconds: float) -> float:
        return self.solution.speedup(total_seconds)

    @property
    def mean_regions_per_reusable(self) -> float:
        reusable = [a for a in self.accelerators if a.is_reusable]
        if not reusable:
            return 0.0
        return sum(a.region_count for a in reusable) / len(reusable)


class _UnionFind:
    def __init__(self, count: int):
        self.parent = list(range(count))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


#: Decimal places kept in float span attributes: float noise such as
#: ``1001.7999999999993`` would make traces of equal runs diff.
SPAN_DIGITS = 3


class AcceleratorMerger:
    """Greedy pairwise merging engine.

    One merger serves a whole Pareto front, whose solutions share their
    accelerators' unit DFGs, so pair savings are memoized across solutions
    by derivation: a leaf unit derives from its DFG, a merged unit from the
    ordered pair of units it was merged from (matching B onto A is not
    symmetric). Matching is a deterministic function of the two units'
    positional forms and the techlib, and a merged unit's form of its
    derivation, so a cached saving is exactly what matching again would
    give. Saving bounds are memoized the same way.
    """

    def __init__(
        self,
        techlib: TechLibrary = DEFAULT_TECHLIB,
        max_steps: Optional[int] = None,
        max_units: int = 400,
        min_match_fraction: float = 0.0,
    ):
        self.techlib = techlib
        self.max_steps = max_steps
        self.max_units = max_units
        #: Restricted hardware sharing (baselines): a pair may merge only if
        #: the match covers at least this fraction of the smaller unit.
        self.min_match_fraction = min_match_fraction
        #: Derivation -> serial: a leaf unit's DFG, or the ordered pair of
        #: serials a merged unit was merged from. Keys hold the leaf DFGs,
        #: so no identity is reused while the merger lives; merged DFGs are
        #: not held, so each solution's intermediate units die with it.
        self._serials: Dict[object, int] = {}
        #: serial_b -> serial_a -> net saving of matching B onto A, after
        #: ``min_match_fraction``; 0.0 when it is not positive, including
        #: when the pair's bound already shows that.
        self._savings: Dict[int, Dict[int, float]] = {}
        #: serial_b -> serial_a -> positive upper bound on that saving, for
        #: pairs not matched exactly yet.
        self._bounds: Dict[int, Dict[int, float]] = {}

    def merge(self, solution: Solution) -> MergedSolution:
        tele = current_telemetry()
        with tele.span(
            "merging.solution", accelerators=len(solution.accelerators)
        ) as span:
            merged = self._merge_impl(solution)
            if tele.enabled:
                span.set("steps", merged.merge_steps)
                span.set("saving_um2", round(merged.saving, SPAN_DIGITS))
                tele.count("merging.solutions")
                tele.count("merging.steps", merged.merge_steps)
                tele.count("merging.recovered_area_um2", merged.saving)
                tele.count(
                    "merging.width_recovered_area_um2",
                    merged.width_recovered_area,
                )
        return merged

    def _merge_impl(self, solution: Solution) -> MergedSolution:
        units: List[MergedUnit] = []
        kernel_of_owner: Dict[int, str] = {}
        for owner, accel in enumerate(solution.accelerators):
            kernel_of_owner[owner] = accel.config.kernel_name
            for name, dfg in accel.units:
                label = f"{accel.config.kernel_name}/{name}"
                units.append(MergedUnit(label, dfg, owner, [label]))

        area_before = solution.area
        uf = _UnionFind(len(solution.accelerators))
        if len(units) > self.max_units or len(units) < 2:
            return self._finalize(solution, area_before, 0.0, units,
                                  kernel_of_owner, uf, 0)

        total_step_saving = 0.0
        width_recovered = 0.0
        steps = 0
        # (serial, unit) by rank, in pool order: merging keeps the
        # survivors' order and appends the merged unit, so ranks never
        # reorder. Each step takes the largest positive saving, the first
        # such pair in pool order on a tie, as a scan over all pairs with a
        # strict ``>`` would. Heap entries are ``(-value, rank_a, rank_b,
        # is_bound)``: a pair not matched yet enters on its bound, and when
        # a bound is on top it is matched and re-entered on its exact
        # saving. An exact entry on top is then the step's pair, because
        # every other pair's entry, bound or exact, is at least its saving
        # and orders after it.
        pool: Dict[int, Tuple[int, MergedUnit]] = {
            rank: (self._serial(unit.dfg), unit)
            for rank, unit in enumerate(units)
        }
        heap: List[Tuple[float, int, int, bool]] = []
        # Positive matches made for this solution, so a winner is not
        # matched twice; pairs whose saving came from the cache have none.
        matches: Dict[Tuple[int, int], MatchResult] = {}
        bounded = 0
        fresh = list(pool)
        while self.max_steps is None or steps < self.max_steps:
            for rank_b in fresh:
                serial_b, unit_b = pool[rank_b]
                savings = self._savings.setdefault(serial_b, {})
                bounds = self._bounds.setdefault(serial_b, {})
                for rank_a, (serial_a, unit_a) in pool.items():
                    if rank_a == rank_b:
                        break
                    saving = savings.get(serial_a)
                    if saving is not None:
                        if saving > 0.0:
                            heappush(heap, (-saving, rank_a, rank_b, False))
                        continue
                    bound = bounds.get(serial_a)
                    if bound is None:
                        bound = self._pair_bound(unit_a, unit_b)
                        if bound <= 0.0:
                            savings[serial_a] = 0.0
                            continue
                        bounds[serial_a] = bound
                    heappush(heap, (-bound, rank_a, rank_b, True))
                    bounded += 1
            while heap:
                _, rank_a, rank_b, is_bound = heap[0]
                if not (rank_a in pool and rank_b in pool):
                    heappop(heap)
                    matches.pop((rank_a, rank_b), None)
                    continue
                if not is_bound:
                    break
                heappop(heap)
                bounded -= 1
                (serial_a, unit_a), (serial_b, unit_b) = (
                    pool[rank_a], pool[rank_b])
                # A pool may hold one derivation twice, so the pair's
                # serials can have been matched since this entry went in.
                savings = self._savings[serial_b]
                saving = savings.get(serial_a)
                if saving is None:
                    del self._bounds[serial_b][serial_a]
                    saving, match = self._pair_saving(unit_a, unit_b)
                    savings[serial_a] = saving
                    if saving > 0.0:
                        matches[(rank_a, rank_b)] = match
                if saving > 0.0:
                    heappush(heap, (-saving, rank_a, rank_b, False))
            if not heap:
                break
            negated, rank_a, rank_b, _ = heappop(heap)
            (serial_a, unit_a), (serial_b, unit_b) = (
                pool.pop(rank_a), pool.pop(rank_b))
            match = matches.pop((rank_a, rank_b), None)
            if match is None:
                _, match = estimate_pair_saving(unit_a, unit_b, self.techlib)
            merged = merge_pair(unit_a, unit_b, self.techlib, match)
            uf.union(uf.find(unit_a.owner), uf.find(unit_b.owner))
            merged.owner = uf.find(unit_a.owner)
            rank = len(units) + steps
            pool[rank] = (self._serial((serial_a, serial_b)), merged)
            fresh = [rank]
            total_step_saving += -negated
            width_recovered += match.width_recovered_area
            steps += 1
        current_telemetry().count("merging.pairs_bounded", bounded)

        units = [unit for _, unit in pool.values()]
        return self._finalize(
            solution, area_before, total_step_saving, units, kernel_of_owner,
            uf, steps, width_recovered
        )

    def _serial(self, derivation) -> int:
        return self._serials.setdefault(derivation, len(self._serials))

    def _pair_saving(
        self, unit_a: MergedUnit, unit_b: MergedUnit
    ) -> Tuple[float, MatchResult]:
        current_telemetry().count("merging.pairs_evaluated")
        saving, match = estimate_pair_saving(unit_a, unit_b, self.techlib)
        if self._too_few(len(match.positions), unit_a, unit_b):
            return 0.0, match
        return (saving if saving > 0.0 else 0.0), match

    def _pair_bound(self, unit_a: MergedUnit, unit_b: MergedUnit) -> float:
        """An upper bound on :meth:`_pair_saving`, without matching."""
        bound, pairs = saving_bound(unit_a.index, unit_b.index, self.techlib)
        return 0.0 if self._too_few(pairs, unit_a, unit_b) else bound

    def _too_few(self, pairs: int, a: MergedUnit, b: MergedUnit) -> bool:
        """Whether ``pairs`` matched ops are under ``min_match_fraction``
        of the smaller unit; never when that fraction is 0 (Cayman's)."""
        if not self.min_match_fraction:
            return False
        smaller = min(len(a.index), len(b.index))
        return pairs / max(1, smaller) < self.min_match_fraction

    #: Fraction of redundant interface hardware a reusable accelerator can
    #: actually share between its mutually exclusive member kernels (the
    #: remainder pays for the muxing/glue in front of the shared ports).
    INTERFACE_SHARE_FACTOR = 0.8

    def _finalize(
        self,
        solution: Solution,
        area_before: float,
        step_saving: float,
        units: List[MergedUnit],
        kernel_of_owner: Dict[int, str],
        uf: _UnionFind,
        steps: int,
        width_recovered: float = 0.0,
    ) -> MergedSolution:
        # Group accelerators by union-find root.
        groups: Dict[int, List[int]] = {}
        for owner in range(len(solution.accelerators)):
            groups.setdefault(uf.find(owner), []).append(owner)

        ctrl_overhead = 0.0
        base_saving = 0.0
        accelerators: List[ReusableAccelerator] = []
        group_roots: List[int] = []
        for root, owners in groups.items():
            group_roots.append(root)
            kernels = [kernel_of_owner[o] for o in owners]
            unit_names = [
                u.name for u in units if uf.find(u.owner) == root
            ]
            accelerators.append(ReusableAccelerator(kernels, unit_names))
            if len(owners) > 1:
                config_bits = sum(
                    u.config_bits for u in units if uf.find(u.owner) == root
                )
                ctrl_overhead += GlobalControlUnit(
                    config_bits=0, members=len(owners)
                ).area(self.techlib)
                # Combined accelerators share one bus/trigger wrapper.
                base_saving += (len(owners) - 1) * ACCELERATOR_BASE_AREA_UM2
                # Only one member kernel runs at a time, so LSUs, AGUs,
                # FIFOs, and DMA engines can be multiplexed between them:
                # the group keeps the largest member's interface set and
                # shares it (with mux overhead) with the others.
                iface_areas = [
                    solution.accelerators[o].breakdown.interfaces
                    for o in owners
                ]
                redundant = sum(iface_areas) - max(iface_areas)
                base_saving += self.INTERFACE_SHARE_FACTOR * redundant

        area_after = max(
            0.0, area_before - step_saving - base_saving + ctrl_overhead
        )
        return MergedSolution(
            solution=solution,
            area_before=area_before,
            area_after=area_after,
            merge_steps=steps,
            accelerators=accelerators,
            units=list(units),
            unit_groups=[uf.find(u.owner) for u in units],
            group_roots=group_roots,
            width_recovered_area=width_recovered,
        )


def merge_solution(
    solution: Solution, techlib: TechLibrary = DEFAULT_TECHLIB
) -> MergedSolution:
    """Merge one solution with the default engine."""
    return AcceleratorMerger(techlib).merge(solution)
