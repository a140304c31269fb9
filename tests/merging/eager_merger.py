"""The greedy merge loop as it ran before it was made lazy: every new pair
is matched exactly before a step picks one. Kept here only as the oracle
the lazy merger must agree with."""

from heapq import heappop, heappush
from typing import Dict, List, Tuple

from repro.merging import AcceleratorMerger, MergedUnit, estimate_pair_saving
from repro.merging import merge_pair
from repro.merging.merge_driver import _UnionFind


class EagerMerger(AcceleratorMerger):
    """:class:`AcceleratorMerger` with an all-pairs exact priority queue:
    the same serial-keyed saving cache, no bounds, and the winner matched
    again before it is merged."""

    def _merge_impl(self, solution):
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

        total, width, steps = 0.0, 0.0, 0
        pool: Dict[int, Tuple[int, MergedUnit]] = {
            rank: (self._serial(unit.dfg), unit)
            for rank, unit in enumerate(units)
        }
        heap: List[Tuple[float, int, int]] = []
        fresh = list(pool)
        while self.max_steps is None or steps < self.max_steps:
            for rank_b in fresh:
                serial_b, unit_b = pool[rank_b]
                savings = self._savings.setdefault(serial_b, {})
                for rank_a, (serial_a, unit_a) in pool.items():
                    if rank_a == rank_b:
                        break
                    saving = savings.get(serial_a)
                    if saving is None:
                        saving, _ = self._pair_saving(unit_a, unit_b)
                        savings[serial_a] = saving
                    if saving > 0.0:
                        heappush(heap, (-saving, rank_a, rank_b))
            while heap and not (heap[0][1] in pool and heap[0][2] in pool):
                heappop(heap)
            if not heap:
                break
            negated, rank_a, rank_b = heappop(heap)
            (serial_a, unit_a), (serial_b, unit_b) = (
                pool.pop(rank_a), pool.pop(rank_b))
            _, match = estimate_pair_saving(unit_a, unit_b, self.techlib)
            merged = merge_pair(unit_a, unit_b, self.techlib, match)
            uf.union(uf.find(unit_a.owner), uf.find(unit_b.owner))
            merged.owner = uf.find(unit_a.owner)
            pool[len(units) + steps] = (
                self._serial((serial_a, serial_b)), merged)
            fresh = [len(units) + steps]
            total += -negated
            width += match.width_recovered_area
            steps += 1

        return self._finalize(
            solution, area_before, total, [u for _, u in pool.values()],
            kernel_of_owner, uf, steps, width,
        )
