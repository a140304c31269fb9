"""NOVIA-style custom-functional-unit synthesis baseline [21].

NOVIA discovers *inline accelerators* (custom functional units) from the
data-flow graphs of basic blocks.  As characterized in the paper's Table I:

* candidates are **DFG-only** — no control flow is accelerated, so each CFU
  covers at most one basic block's arithmetic;
* the interface is **scalar-only**: operands arrive in registers and memory
  accesses stay on the CPU (loads/stores/address arithmetic are excluded
  from the CFU);
* hardware sharing is restricted (similar DFGs merge into a reusable CFU).

CFUs sit inside the core and run at CPU frequency; their benefit is operator
chaining and ILP on the covered arithmetic, which is why NOVIA solutions
cluster in the low-area/low-speedup corner of Fig. 6.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.wpst import WPSTNode
from ..framework import Cayman
from ..hls.dfg import DFG, DFGNode
from ..hls.scheduling import schedule_dfg
from ..hls.datapath import sequential_datapath_area
from ..hls.techlib import DEFAULT_TECHLIB, TechLibrary
from ..interp.cpu_model import CPU_CYCLES, CPU_FREQ_HZ
from ..interp.profiler import RegionProfile
from ..ir import Module
from ..model.config import AcceleratorConfig, AcceleratorEstimate
from ..model.interfaces import InterfacePlan

#: Resource classes a scalar-only CFU cannot absorb.
_EXCLUDED_RESOURCES = frozenset(
    ["load", "store", "gep", "phi", "call", "alloca", "control"]
)

#: Cycles to move operands in / results out and trigger the inline unit.
CFU_INVOKE_OVERHEAD_CYCLES = 1

#: Minimum arithmetic ops for a DFG to be worth a custom unit.
MIN_CFU_OPS = 3


def compute_subdfg(block_dfg: DFG) -> DFG:
    """The scalar compute-only sub-DFG of a basic block.

    Memory operations and address arithmetic stay on the CPU; values they
    produce become external CFU inputs.
    """
    keep = [n for n in block_dfg.nodes if n.resource not in _EXCLUDED_RESOURCES]
    keep_set = set(keep)
    clone_of: Dict[DFGNode, DFGNode] = {}
    nodes: List[DFGNode] = []
    for node in keep:
        clone = DFGNode(node.inst, node.copy)
        clone_of[node] = clone
        clone.preds = [clone_of[p] for p in node.preds if p in keep_set]
        for pred in clone.preds:
            pred.succs.append(clone)
        nodes.append(clone)
    return DFG(nodes)


class NoviaModel:
    """Candidate model: one inline CFU per hot basic block's DFG."""

    def __init__(
        self,
        module: Module,
        profile: RegionProfile,
        techlib: TechLibrary = DEFAULT_TECHLIB,
    ):
        self.module = module
        self.profile = profile
        # CFUs clock with the core.
        self.cpu_techlib = TechLibrary(clock_ns=1e9 / CPU_FREQ_HZ)
        self.techlib = techlib
        self._cache: Dict[int, List[AcceleratorEstimate]] = {}

    def candidates(self, node: WPSTNode) -> List[AcceleratorEstimate]:
        if node.kind != "bb" or node.region is None:
            return []
        key = id(node.region)
        if key not in self._cache:
            self._cache[key] = self._evaluate(node)
        return self._cache[key]

    def _evaluate(self, node: WPSTNode) -> List[AcceleratorEstimate]:
        block = node.block
        executions = self.profile.block_count(block)
        if executions == 0:
            return []
        subdfg = compute_subdfg(DFG.from_blocks([block]))
        if len(subdfg.nodes) < MIN_CFU_OPS:
            return []

        cpu_cycles = sum(CPU_CYCLES[n.resource] for n in subdfg.nodes)
        schedule = schedule_dfg(
            subdfg, self.cpu_techlib, access_timing=lambda n: None
        )
        cfu_cycles = schedule.length + CFU_INVOKE_OVERHEAD_CYCLES
        saved_cycles = cpu_cycles - cfu_cycles
        if saved_cycles <= 0:
            return []

        area = sequential_datapath_area(subdfg, schedule, self.techlib)
        config = AcceleratorConfig(
            region=node.region, loop_plans={}, plan=InterfacePlan(), label="cfu"
        )
        estimate = AcceleratorEstimate(
            config=config,
            cycles=cfu_cycles * executions,
            area=area.total,
            breakdown=area,
            seq_blocks=1,
            pipelined_regions=0,
            interface_counts={},
            invocations=executions,
            kernel_seconds=cpu_cycles * executions / CPU_FREQ_HZ,
            accel_seconds=cfu_cycles * executions / CPU_FREQ_HZ,
            units=[(f"cfu:{block.name}", subdfg)],
        )
        return [estimate]


class Novia(Cayman):
    """NOVIA baseline flow: Cayman's pipeline with one inline CFU per hot
    basic block, merging only DFGs that at least half match."""

    MIN_MATCH_FRACTION = 0.5

    def __init__(
        self,
        techlib: TechLibrary = DEFAULT_TECHLIB,
        alpha: float = 1.1,
        prune_threshold: float = 0.001,
        area_cap_ratio: float = 2.0,
    ):
        super().__init__(techlib, alpha=alpha, prune_threshold=prune_threshold,
                         area_cap_ratio=area_cap_ratio)

    def build_model(self, module: Module, profile: RegionProfile) -> NoviaModel:
        return NoviaModel(module, profile, techlib=self.techlib)
