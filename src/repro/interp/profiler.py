"""Region profiling on top of the interpreter (paper §III-B, §III-F).

Cayman instruments applications to record execution counts and durations per
region.  Here the interpreter gathers per-block and per-edge counters during
a run, and :class:`RegionProfile` aggregates them to any wPST region:

* ``count(region)``  — times the region was entered from outside;
* ``cycles(region)`` — CPU cycles spent inside the region (inclusive of
  callees invoked from inside it);
* ``trip_count(loop)`` — average iterations per entry for loop regions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..ir import BasicBlock, Function, Module
from ..analysis.loops import Loop
from ..analysis.regions import Region
from .cpu_model import CPU_FREQ_HZ
from .interpreter import Interpreter, ProfileCounters


class RegionProfile:
    """Aggregated profiling results for a module run.

    The counters are final once :func:`profile_module` returns (its
    interpreter is gone and nothing else writes them), so entry counts are
    memoized per region and per loop object, and each function's
    predecessor map (the CFG the counters were taken on) is built once.
    """

    def __init__(self, counters: ProfileCounters, total_cycles: float):
        self.counters = counters
        self.total_cycles = total_cycles
        self._entries: Dict[object, int] = {}
        self._preds: Dict[Function, Dict[BasicBlock, List[BasicBlock]]] = {}

    # Block-level ------------------------------------------------------------

    def block_count(self, block: BasicBlock) -> int:
        return self.counters.block_count.get(block, 0)

    def block_instructions(self, block: BasicBlock) -> int:
        """Non-phi instructions executed inside the block."""
        return self.counters.block_instructions.get(block, 0)

    def block_cycles(self, block: BasicBlock) -> float:
        return self.counters.block_cycles.get(block, 0.0)

    def edge_count(self, src: BasicBlock, dst: BasicBlock) -> int:
        return self.counters.edge_count.get((src, dst), 0)

    def function_entries(self, func: Function) -> int:
        return self.counters.func_entry_count.get(func, 0)

    # Region-level ----------------------------------------------------------------

    def region_count(self, region: Region) -> int:
        """Times the region was entered from outside it."""
        return self._entry_count(region, region.entry)

    def region_cycles(self, region: Region) -> float:
        """CPU cycles spent executing the region (callee-inclusive)."""
        return sum(self.block_cycles(block) for block in region.blocks)

    def region_seconds(self, region: Region) -> float:
        return self.region_cycles(region) / CPU_FREQ_HZ

    def region_time_share(self, region: Region) -> float:
        """Fraction of total program time spent in the region."""
        if self.total_cycles <= 0:
            return 0.0
        return self.region_cycles(region) / self.total_cycles

    # Loop-level --------------------------------------------------------------------

    def loop_entries(self, loop: Loop) -> int:
        """Times the loop was entered from outside it."""
        return self._entry_count(loop, loop.header)

    def _entry_count(self, owner, entry: BasicBlock) -> int:
        """Edges into ``entry`` from outside ``owner.blocks``, plus the
        function's entries when ``entry`` is the function entry block."""
        count = self._entries.get(owner)
        if count is None:
            func = entry.parent
            count = 0
            if func is not None:
                preds = self._preds.get(func)
                if preds is None:
                    preds = self._preds[func] = func.predecessor_map()
                count = sum(
                    self.edge_count(pred, entry)
                    for pred in preds[entry]
                    if pred not in owner.blocks
                )
                if entry is func.entry:
                    count += self.function_entries(func)
            self._entries[owner] = count
        return count

    def loop_iterations(self, loop: Loop) -> int:
        """Total body iterations (back-edge traversals)."""
        return sum(self.edge_count(latch, loop.header) for latch in loop.latches)

    def trip_count(self, loop: Loop) -> float:
        """Average iterations per loop entry (0 when never entered)."""
        entries = self.loop_entries(loop)
        if entries == 0:
            return 0.0
        return self.loop_iterations(loop) / entries

    @property
    def total_seconds(self) -> float:
        return self.total_cycles / CPU_FREQ_HZ


def profile_module(
    module: Module,
    entry: str = "main",
    args: Optional[List] = None,
    setup: Optional[Callable[[Interpreter], None]] = None,
    max_instructions: int = 200_000_000,
) -> RegionProfile:
    """Run ``entry`` under the profiling interpreter and aggregate results.

    ``setup`` receives the interpreter before execution so workloads can
    initialize global arrays (the moral equivalent of input files).
    """
    interp = Interpreter(module, profile=True, max_instructions=max_instructions)
    if setup is not None:
        setup(interp)
    interp.run(entry, args or [])
    counters = interp.counters
    counters.total_cycles = interp.cycles
    counters.total_instructions = interp.instructions
    return RegionProfile(counters, interp.cycles)
