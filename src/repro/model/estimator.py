"""Cayman's accelerator model: configuration generation plus fast
performance/area estimation (paper §III-C).

For a selected kernel (a wPST region) the model

1. applies loop unrolling according to the configuration (DFG replication,
   legal only without loop-carried dependencies);
2. synthesizes only the pipelined loop regions ``P`` and the sequential
   basic blocks ``B`` via the HLS substrate;
3. estimates total cycles bottom-up from scheduled latencies × profiled
   execution counts, and area as the sum of synthesized units plus
   interface, control, and fixed accelerator overheads.

The per-access interface heuristic: *scratchpad* when the access count is
β× larger than the footprint (caching pays off), *decoupled* for stream
accesses inside pipelined loops (reaches the ideal II), *coupled* otherwise
(cheapest).  Memory partitioning matches scratchpads to unrolled loops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.access_patterns import AccessInfo
from ..analysis.facts import FunctionContext, ModuleFacts
from ..analysis.loops import Loop, LoopInfo
from ..analysis.regions import Region
from ..analysis.wpst import WPSTNode
from ..ir import BasicBlock, Function, Instruction, Load, Module, Store
from ..hls.datapath import (
    AreaBreakdown,
    pipelined_datapath_area,
    sequential_datapath_area,
)
from ..hls.dfg import DFG, DFGNode
from ..hls.pipeline import PipelineResult, pipeline_loop
from ..hls.scheduling import Schedule, schedule_dfg
from ..hls.techlib import (
    ACCELERATOR_BASE_AREA_UM2,
    OFFLOAD_OVERHEAD_CYCLES,
    REGION_CTRL_AREA_UM2,
    DEFAULT_TECHLIB,
    SPAD_LATENCY,
    TechLibrary,
)
from ..hls.report import SynthesisReport
from ..hls.transform import unroll_legal
from ..interp.profiler import RegionProfile
from ..telemetry import current as current_telemetry
from .config import AcceleratorConfig, AcceleratorEstimate, LoopPlan
from .interfaces import InterfaceAssignment, InterfaceKind, InterfacePlan


#: Version tag of the performance/area estimation logic.  Bump whenever the
#: estimates produced for an unchanged module can change (new interface
#: heuristics, cost-table updates, scheduling changes, ...): it is part of the
#: bench harness's persistent cache key, so bumping it invalidates every
#: cached evaluation record.
ESTIMATOR_VERSION = "6"

#: The proofs the estimator can price, named by the sanitizer claim that
#: checks each.  Without one, a config is priced as if it were unproven:
#: type widths (``bitwidth``), claimed partitions trusted as parallel
#: (``banking``), every scratchpad load on a port (``reuse``), every
#: memory recurrence at distance 1 and unrolls only of loops that carry
#: no memory dependence (``dependence``).
PROOFS = ("bitwidth", "banking", "reuse", "dependence")


def loop_recurrences(
    loop: Loop, dfg: DFG, ctx: FunctionContext, unroll_factor: int = 1
) -> List[Tuple[DFGNode, DFGNode, int]]:
    """Recurrence triples ``(load_node, store_node, distance)`` of ``loop``.

    Memory recurrences carry the *proven minimal* dependence distance
    (``Dependence.effective_distance``, 1 when unproven): a recurrence of
    latency L at distance d only forces II ≥ ceil(L / d).  When the loop is
    unrolled, distances are re-expressed in groups of ``unroll_factor``
    iterations.  SSA recurrences through header phis (promoted accumulators)
    are always distance 1.
    """
    node_of: Dict[Instruction, DFGNode] = {}
    for node in dfg.nodes:
        node_of.setdefault(node.inst, node)
    result: List[Tuple[DFGNode, DFGNode, int]] = []
    for dep in ctx.memdep.recurrence_deps(loop):
        store_node = node_of.get(dep.source.inst)
        load_node = node_of.get(dep.sink.inst)
        if store_node is not None and load_node is not None:
            distance = max(1, dep.effective_distance // max(1, unroll_factor))
            result.append((load_node, store_node, distance))
    # The path from the phi's first consumer to the back-edge definition
    # must fit within one II (distance 1).
    for phi in loop.header.phis():
        for value, pred in phi.incoming():
            if pred not in loop.blocks:
                continue
            back_node = node_of.get(value) if isinstance(value, Instruction) else None
            if back_node is None:
                continue
            for user in phi.users:
                start = node_of.get(user)
                if start is not None:
                    result.append((start, back_node, 1))
    return result


def _unrolled_loops(
    inst: Instruction, loop_plans: Dict[Loop, "LoopPlan"], loop_info: LoopInfo
) -> Tuple:
    """The ``(loop, factor)`` pairs that replicate ``inst`` into parallel
    lanes under a configuration's loop plans (innermost-first)."""
    spec = []
    loop = (
        loop_info.innermost_loop(inst.parent)
        if inst.parent is not None else None
    )
    while loop is not None:
        plan = loop_plans.get(loop)
        if plan is not None and plan.unroll > 1:
            spec.append((loop, plan.unroll))
        loop = loop.parent
    return tuple(spec)


def estimate_key(config: AcceleratorConfig) -> Tuple:
    """Everything :meth:`AcceleratorModel.estimate` reads of ``config``
    besides its region: the loop plans, then per access in plan order its
    interface kind, scratchpad group, bytes and partitions, whether the
    banking is proven, and its reuse tap. Two configs of one region with
    equal keys get equal estimates."""
    return (
        tuple(
            (loop, plan.unroll, plan.pipelined)
            for loop, plan in config.loop_plans.items()
        ),
        tuple(
            (inst, a.kind, a.spad_group, a.spad_bytes, a.partitions,
             a.banking_proven, a.reuse_source, a.reuse_distance,
             a.reuse_depth, a.reuse_bits)
            for inst, a in config.plan.assignments.items()
        ),
    )


class AcceleratorModel:
    """Generates and evaluates accelerator configurations for wPST regions."""

    #: Interface strategy variants explored per unroll factor.
    INTERFACE_MODES = ("full", "no_spad", "coupled_only")

    def __init__(
        self,
        module: Module,
        profile: RegionProfile,
        techlib: TechLibrary = DEFAULT_TECHLIB,
        beta: float = 4.0,
        unroll_factors: Sequence[int] = (1, 2, 4, 8),
        max_spad_bytes: int = 1 << 16,
        coupled_only: bool = False,
        pipeline_innermost: bool = True,
        proofs: Sequence[str] = PROOFS,
    ):
        self.module = module
        self.profile = profile
        self.techlib = techlib
        self.beta = beta
        self.unroll_factors = tuple(unroll_factors)
        self.max_spad_bytes = max_spad_bytes
        self.coupled_only = coupled_only
        self.pipeline_innermost = pipeline_innermost
        unknown = [proof for proof in proofs if proof not in PROOFS]
        if unknown:
            raise ValueError(f"unknown proof {unknown[0]!r}; valid proofs: "
                             f"{', '.join(PROOFS)}")
        #: The subset of :data:`PROOFS` this model prices.
        self.proofs = frozenset(proofs)
        self._estimate_cache: Dict[Tuple, List[AcceleratorEstimate]] = {}
        #: Unit synthesis caches shared by every config of a run.  The base
        #: DFG of each loop body and basic block; each pipelined unit's
        #: ``(replicated DFG, PipelineResult, AreaBreakdown)`` by ``(loop,
        #: replication, unroll, timing signature)``; each sequential unit's
        #: ``(DFG, Schedule, AreaBreakdown)`` by ``(block, timing signature)``.
        #: The signature (``InterfacePlan.timing_signature``) is all a
        #: schedule reads of a plan, so a hit is exactly what synthesizing
        #: again would give.  Estimates and their reports share these
        #: objects, so nothing may mutate them.
        self._unit_dfgs: Dict[object, DFG] = {}
        self._pipelined_units: Dict[Tuple, Tuple] = {}
        self._sequential_units: Dict[Tuple, Tuple] = {}
        #: What every config of a region reads and no config changes, built
        #: on first use: the region's loops and its accesses in block
        #: order, each access's ``(scratchpad footprint, count per
        #: invocation)`` by ``(region, inst)``, and each ``(loop, distance
        #: factor)``'s unroll legality.  The profile and the facts are
        #: fixed for the model's life, so none of them goes stale.
        self._region_loops: Dict[Region, List[Loop]] = {}
        self._region_accesses: Dict[Region, List[AccessInfo]] = {}
        self._spad_sizes: Dict[Tuple, Tuple[Optional[int], float]] = {}
        self._unroll_legal: Dict[Tuple, bool] = {}
        #: The module's shared static facts: points-to backs may_alias,
        #: interval windows clamp footprints, bitwidth narrows datapath
        #: operators to their proven widths.
        self.facts = ModuleFacts.of(module)

    # Context management ------------------------------------------------------

    def context(self, func: Function) -> FunctionContext:
        return self.facts.context(func)

    # Public API ---------------------------------------------------------------

    def candidates(self, node: WPSTNode) -> List[AcceleratorEstimate]:
        """All profitable accelerator configurations for one region vertex."""
        region = node.region
        if region is None:
            return []
        key = (id(region),)
        if key in self._estimate_cache:
            return self._estimate_cache[key]
        result = self._candidates_uncached(region)
        self._estimate_cache[key] = result
        return result

    def _candidates_uncached(self, region: Region) -> List[AcceleratorEstimate]:
        if not self.is_candidate_region(region):
            return []
        invocations = self.profile.region_count(region)
        if invocations <= 0:
            return []
        ctx = self.context(region.function)
        estimates: List[AcceleratorEstimate] = []
        estimated: set = set()
        seen: set = set()
        tele = current_telemetry()

        for config in self.generate_configs(region):
            tele.count("model.configs_generated")
            # A config equal to an earlier one in all an estimate reads
            # would get the same estimate, which the first one's entry
            # already stands for: skipped here, it would be deduped below.
            key = estimate_key(config)
            if key in estimated:
                tele.count("model.configs_deduped")
                continue
            estimated.add(key)
            estimate = self.estimate(config, ctx)
            if estimate is None or not estimate.is_profitable:
                tele.count("model.configs_unprofitable")
                continue
            signature = (round(estimate.cycles), round(estimate.area))
            if signature in seen:
                tele.count("model.configs_deduped")
                continue
            seen.add(signature)
            estimates.append(estimate)
        tele.count("model.candidates", len(estimates))
        return estimates

    # Configuration generation ----------------------------------------------------

    def generate_configs(self, region: Region):
        """Generate every candidate configuration the search explores.

        Each is legal by construction: :meth:`build_config` unrolls only
        loops the dependence analysis clears and sizes only scratchpads
        that fit, so selection estimates every config it is given (lint's
        config layer re-checks them)."""
        ctx = self.context(region.function)
        modes = ("coupled_only",) if self.coupled_only else self.INTERFACE_MODES
        for factor in self.unroll_factors:
            for mode in modes:
                yield self.build_config(region, ctx, factor, mode)

        # Per-nest refinement: when the kernel contains several independent
        # loop nests, also try unrolling just one of them — cheaper points
        # on the performance-area front than the uniform factors above.
        top_nests = self._top_level_nests(region, ctx)
        max_factor = max(self.unroll_factors)
        if len(top_nests) >= 2 and max_factor > 1 and not self.coupled_only:
            for nest in top_nests[:4]:
                yield self.build_config(
                    region, ctx, max_factor, "full", only_nest=nest
                )

    def is_candidate_region(self, region: Region) -> bool:
        """Whether the model would consider ``region`` at all (regions
        containing calls are never offloaded, paper §III-B)."""
        return not any(block.has_call for block in region.blocks)

    def build_config(
        self,
        region: Region,
        ctx: FunctionContext,
        factor: int,
        mode: str,
        only_nest: Optional[Loop] = None,
    ) -> AcceleratorConfig:
        """One configuration: unroll/pipeline plan + interface assignment.

        ``only_nest`` restricts the unroll factor to the nest rooted at the
        given top-level loop (per-nest exploration); other nests keep 1.
        """
        loops = self._loops_in_region(region, ctx)
        loop_set = set(loops)
        loop_plans: Dict[Loop, LoopPlan] = {}
        for loop in loops:
            innermost = loop.is_innermost and self.pipeline_innermost
            loop_plans[loop] = LoopPlan(loop=loop, unroll=1, pipelined=innermost)
        if factor > 1 and self.pipeline_innermost:
            # The unroll lands on the nearest unroll-legal loop of each nest,
            # walking outward from the innermost loop (paper §III-C: "try
            # unrolling loops without loop-carried dependencies").  Unrolling
            # an outer loop replicates the inner pipeline into parallel lanes.
            distance_factor = factor if "dependence" in self.proofs else None
            for loop in loops:
                if not loop.is_innermost:
                    continue
                if only_nest is not None and not only_nest.contains_loop(loop):
                    continue
                candidate: Optional[Loop] = loop
                while candidate is not None and candidate in loop_set:
                    # Factor-aware legality: a carried dependence with a
                    # proven distance ≥ factor still admits this unroll
                    # (with dependence proofs off, no carried one does).
                    if self._legal_unroll(candidate, ctx, distance_factor):
                        if self.profile.trip_count(candidate) >= factor:
                            loop_plans[candidate].unroll = factor
                        break
                    candidate = candidate.parent

        plan = InterfacePlan()
        for access in self._accesses_in_region(region, ctx):
            plan.assign(
                self._assign_interface(access, region, ctx, loop_plans, mode)
            )
        self.prove_plan(plan, ctx, loop_plans)
        label = f"u{factor}/{mode}"
        if only_nest is not None:
            label += f"@{only_nest.name}"
        return AcceleratorConfig(
            region=region,
            loop_plans=loop_plans,
            plan=plan,
            label=label,
        )

    def prove_plan(
        self,
        plan: InterfacePlan,
        ctx: FunctionContext,
        loop_plans: Dict[Loop, LoopPlan],
    ) -> None:
        """Lower ``plan``'s scratchpad groups by the proofs this model
        prices: reuse buffers, then proven banking."""
        if "reuse" in self.proofs:
            # Runs before banking: buffered consumers leave their group, so
            # the banking verdict only has to serve the remaining port
            # accesses (fewer banks can then suffice).
            self._apply_reuse(plan, ctx, loop_plans)
        if "banking" in self.proofs:
            self._apply_banking(plan, ctx, loop_plans)

    def banking_verdict(
        self,
        group,
        assignments: List[InterfaceAssignment],
        ctx: FunctionContext,
        loop_plans: Dict[Loop, LoopPlan],
    ):
        """The bank-conflict verdict of one scratchpad group under
        ``loop_plans``: its port accesses with their unrolled lanes, sized
        by the group's largest footprint.  Reuse-buffered consumers never
        touch the banks in steady state, so the scheme only has to serve
        the port accesses."""
        from ..analysis.banking import GroupAccess

        members = [
            GroupAccess(
                ctx.access.info(a.inst),
                _unrolled_loops(a.inst, loop_plans, ctx.loop_info),
            )
            for a in assignments
            if not a.reuse_buffered
        ]
        footprint = max(a.spad_bytes for a in assignments)
        return ctx.banking.verdict(
            group, members, footprint_bytes=footprint or None
        )

    def reuse_groups(
        self,
        plan: InterfacePlan,
        ctx: FunctionContext,
        loop_plans: Dict[Loop, LoopPlan],
    ):
        """Yield ``(group, loop, members, verdict, lanes)`` for the
        accesses of every scratchpad group in each call-free pipelined
        loop: the reuse verdict over the loop's stores (callee stores
        could clobber a buffer, so loops with calls are skipped) and the
        lane count the loop plans replicate the members into."""
        for group, assignments in plan.spad_groups().items():
            by_loop: Dict[Loop, List[InterfaceAssignment]] = {}
            for assignment in assignments:
                loop = ctx.loop_info.innermost_loop(assignment.inst.parent)
                loop_plan = loop_plans.get(loop) if loop is not None else None
                if loop_plan is None or not loop_plan.pipelined:
                    continue
                by_loop.setdefault(loop, []).append(assignment)
            for loop, members in by_loop.items():
                if any(block.has_call for block in loop.blocks):
                    continue
                stores = [
                    info for info in ctx.access.accesses_in(loop.blocks)
                    if info.is_store
                ]
                verdict = ctx.reuse.verdict(
                    group, loop,
                    [ctx.access.info(a.inst) for a in members],
                    stores=stores,
                )
                lanes = loop_plans[loop].unroll * self._lane_factor(
                    loop, loop_plans
                )
                yield group, loop, members, verdict, lanes

    def _apply_banking(
        self,
        plan: InterfacePlan,
        ctx: FunctionContext,
        loop_plans: Dict[Loop, LoopPlan],
    ) -> None:
        """Back every scratchpad group's partitioning with a proven verdict.

        Proven groups get the cheapest conflict-free scheme's bank count
        (which can be *smaller* than the claimed lane count, e.g. broadcast
        loads prove with one bank).  Unproven groups keep the claimed
        partitioning for area — the hardware would still build the banks —
        but ``banking_proven=False`` makes ``port_counts`` expose a single
        dual-ported bank, so the scheduler serializes the group's accesses.
        """
        tele = current_telemetry()
        for group, assignments in plan.spad_groups().items():
            verdict = self.banking_verdict(group, assignments, ctx, loop_plans)
            claimed = max(a.partitions for a in assignments)
            for assignment in assignments:
                assignment.banking = verdict.best
                assignment.banking_proven = verdict.proven
                assignment.banking_verdict = verdict
                if verdict.best is not None and not assignment.reuse_buffered:
                    assignment.partitions = verdict.best.banks
            if tele.enabled:
                tele.count("model.banking_groups")
                if not verdict.proven and claimed > 1:
                    tele.count("model.banking_serialized")
                elif verdict.proven and verdict.best.banks < claimed:
                    tele.count("model.banking_deprovisioned")

    def _apply_reuse(
        self,
        plan: InterfacePlan,
        ctx: FunctionContext,
        loop_plans: Dict[Loop, LoopPlan],
    ) -> None:
        """Convert proven reuse pairs into shift-register buffers.

        For every scratchpad group inside a pipelined innermost loop the
        reuse analysis decides which loads provably re-read an element a
        recent iteration touched.  Each exploitable consumer (proven trip
        bound beyond the distance, chain within the depth budget) is fed
        from a register tap instead of a port: its timing loses the port,
        its partition claim drops to one, and the chain's registers are
        priced by ``InterfacePlan.reuse_register_area``.  Only *proven*
        pairs qualify — unknown candidates are never buffered.
        """
        from ..analysis.reuse import select_buffers

        tele = current_telemetry()
        for _, _, members, verdict, lanes in self.reuse_groups(
            plan, ctx, loop_plans
        ):
            if not verdict.pairs:
                continue
            chosen, over_budget = select_buffers(verdict, lanes=lanes)
            by_inst = {a.inst: a for a in members}
            for inst, pair in chosen.items():
                assignment = by_inst.get(inst)
                if assignment is None:
                    continue
                assignment.reuse_source = pair.producer.inst
                assignment.reuse_distance = pair.distance
                assignment.reuse_depth = pair.depth(lanes)
                assignment.reuse_bits = 8 * pair.consumer.element_size
                assignment.partitions = 1
                if tele.enabled:
                    tele.count("model.reuse_buffered")
            if tele.enabled:
                tele.count("model.reuse_groups")
                tele.count("model.reuse_over_budget", len(over_budget))

    def _assign_interface(
        self,
        access: AccessInfo,
        region: Region,
        ctx: FunctionContext,
        loop_plans: Dict[Loop, LoopPlan],
        mode: str,
    ) -> InterfaceAssignment:
        inst = access.inst
        if mode == "coupled_only":
            return InterfaceAssignment(inst, InterfaceKind.COUPLED)
        if mode == "scanchain":
            return InterfaceAssignment(inst, InterfaceKind.SCANCHAIN)

        enclosing = ctx.loop_info.innermost_loop(inst.parent)
        plan_for_loop = loop_plans.get(enclosing) if enclosing is not None else None
        in_pipelined = plan_for_loop is not None and plan_for_loop.pipelined

        if mode == "full":
            footprint, count = self._spad_size(access, region, ctx)
            if footprint is not None and 0 < footprint <= self.max_spad_bytes:
                elements = max(1, footprint // max(1, access.element_size))
                if count >= self.beta * elements:
                    partitions = 1
                    if plan_for_loop is not None:
                        partitions = plan_for_loop.unroll * self._lane_factor(
                            plan_for_loop.loop, loop_plans
                        )
                    return InterfaceAssignment(
                        inst,
                        InterfaceKind.SCRATCHPAD,
                        spad_group=access.base,
                        spad_bytes=footprint,
                        partitions=max(1, partitions),
                    )
        if in_pipelined and access.is_stream:
            return InterfaceAssignment(inst, InterfaceKind.DECOUPLED)
        return InterfaceAssignment(inst, InterfaceKind.COUPLED)

    def _spad_size(
        self, access: AccessInfo, region: Region, ctx: FunctionContext
    ) -> Tuple[Optional[int], float]:
        """The access's scratchpad footprint in ``region`` and its count
        per region invocation, computed once per ``(region, access)``."""
        key = (region, access.inst)
        size = self._spad_sizes.get(key)
        if size is None:
            size = self._spad_sizes[key] = (
                self._spad_footprint_bytes(access, region, ctx),
                self._access_count_per_invocation(access, region),
            )
        return size

    def _spad_footprint_bytes(
        self, access: AccessInfo, region: Region, ctx: FunctionContext
    ) -> Optional[int]:
        """Byte span the access touches during one kernel invocation.

        The SCEV recurrence estimate (profiled trip counts, statically
        clamped) is tightened by the interval-proven offset window of the
        access; non-affine accesses fall back to the window alone, which
        makes them scratchpad candidates the SCEV model alone cannot size.
        """
        window_bytes = self._window_bytes(access)
        levels = access.addrec_levels()
        if levels is None:
            return window_bytes
        span = access.element_size
        for loop, step in levels:
            if loop.blocks <= region.blocks:
                trip = max(1, round(self.profile.trip_count(loop)))
                proven = ctx.static_trip_bound(loop)
                if proven is not None:
                    trip = min(trip, proven)
                span += abs(step) * (trip - 1)
        if window_bytes is not None:
            span = min(span, window_bytes)
        return span

    def _window_bytes(self, access: AccessInfo) -> Optional[int]:
        """Size of the interval-proven byte window of the access."""
        window = self.facts.bounds.windows.get(access.inst)
        if window is None:
            return None
        off = window.offset
        if off.lo is None or off.hi is None:
            return None
        return off.hi + window.access_size - off.lo

    def _access_count_per_invocation(
        self, access: AccessInfo, region: Region
    ) -> float:
        invocations = max(1, self.profile.region_count(region))
        return self.profile.block_count(access.inst.parent) / invocations

    # Estimation -----------------------------------------------------------------

    def estimate(
        self, config: AcceleratorConfig, ctx: FunctionContext
    ) -> Optional[AcceleratorEstimate]:
        """Cycles and area of one configuration.

        ``ctx`` is :meth:`context` of the region's function: the unit
        caches behind this call are keyed by loop and block, so their DFGs
        and schedules assume that context's alias, width and dependence
        facts.
        """
        region = config.region
        profile = self.profile
        techlib = self.techlib
        plan = config.plan
        invocations = profile.region_count(region)
        ports = plan.port_counts()
        interface_counts = plan.counts()
        cached_units = len(self._pipelined_units) + len(self._sequential_units)

        cycles = 0.0
        area = AreaBreakdown()
        seq_blocks = 0
        pipelined_regions = 0
        pipelined_blocks: set = set()
        units: List[Tuple[str, DFG]] = []
        reports: List[SynthesisReport] = []

        # 1. Pipelined loop regions.
        for loop_plan in config.loop_plans.values():
            if not loop_plan.pipelined:
                continue
            loop = loop_plan.loop
            # Unrolled outer loops replicate this inner pipeline into lanes.
            replication = loop_plan.unroll * self._lane_factor(
                loop, config.loop_plans
            )
            unit = self.pipelined_unit(
                loop, replication, loop_plan.unroll, plan, ports, ctx
            )
            if unit is None:
                continue
            unrolled, result, unit_area = unit
            entries = profile.loop_entries(loop)
            iterations = profile.loop_iterations(loop) / replication
            cycles += entries * result.depth
            cycles += max(0.0, iterations - entries) * result.ii
            # Reuse buffers need a warm-up prologue: the first `distance`
            # elements of each chain are pre-filled through the scratchpad
            # port before the steady-state (port-free) pipeline starts.
            warm = 0
            for block in loop.blocks:
                for inst in block.instructions:
                    a = plan.assignments.get(inst)
                    if a is not None and a.reuse_buffered:
                        warm = max(warm, a.reuse_distance)
            if warm:
                cycles += entries * warm * SPAD_LATENCY
            area = area + unit_area
            pipelined_regions += 1
            pipelined_blocks.update(loop.blocks)
            units.append((f"pipe:{loop.name}", unrolled))
            reports.append(SynthesisReport(
                name=f"pipe:{loop.name}",
                kind="pipelined",
                latency_cycles=result.latency(
                    max(1.0, iterations / max(1, entries))
                ),
                ii=result.ii,
                depth=result.depth,
                area=unit_area,
                interface_counts=interface_counts,
            ))

        # 2. Sequential basic blocks (everything not swallowed by a pipeline).
        for block in ctx.ordered_blocks(region.blocks):
            if block in pipelined_blocks:
                continue
            count = profile.block_count(block)
            unit = self.sequential_unit(block, plan, ports, ctx)
            if unit is None:
                cycles += count  # control-only block: one FSM state
                continue
            dfg, schedule, unit_area = unit
            cycles += count * schedule.length
            area = area + unit_area
            seq_blocks += 1
            units.append((f"bb:{block.name}", dfg))
            reports.append(SynthesisReport(
                name=f"bb:{block.name}",
                kind="sequential",
                latency_cycles=schedule.length,
                ii=None,
                depth=None,
                area=unit_area,
            ))

        tele = current_telemetry()
        if tele.enabled:
            # One batched update per estimate: every unit is either
            # synthesized now or taken from an earlier config's entry.
            built = (
                len(self._pipelined_units) + len(self._sequential_units)
                - cached_units
            )
            tele.count("model.units_built", built)
            tele.count("model.units_reused", len(units) - built)
        if seq_blocks == 0 and pipelined_regions == 0:
            return None

        # 3. Outer-region sequencing control, interfaces, fixed overheads.
        outer_loops = sum(
            1 for p in config.loop_plans.values() if not p.pipelined
        )
        area.control += REGION_CTRL_AREA_UM2 * (outer_loops + 1)
        area.control += ACCELERATOR_BASE_AREA_UM2
        area.interfaces += plan.interface_area(techlib)

        cycles += plan.dma_cycles_per_invocation(techlib) * invocations
        cycles += OFFLOAD_OVERHEAD_CYCLES * invocations

        kernel_seconds = profile.region_seconds(region)
        accel_seconds = cycles / techlib.frequency_hz
        return AcceleratorEstimate(
            config=config,
            cycles=cycles,
            area=area.total,
            breakdown=area,
            seq_blocks=seq_blocks,
            pipelined_regions=pipelined_regions,
            interface_counts=interface_counts,
            invocations=invocations,
            kernel_seconds=kernel_seconds,
            accel_seconds=accel_seconds,
            units=units,
            reports=reports,
        )

    # Unit synthesis cache --------------------------------------------------------

    def _unit_dfg(self, owner, blocks, ctx: FunctionContext) -> DFG:
        """The base DFG of a loop body or a basic block, built once."""
        dfg = self._unit_dfgs.get(owner)
        if dfg is None:
            dfg = self._unit_dfgs[owner] = DFG.from_blocks(
                ctx.ordered_blocks(blocks),
                may_alias=ctx.may_alias,
                widths=ctx.widths if "bitwidth" in self.proofs else None,
            )
        return dfg

    def pipelined_unit(
        self,
        loop: Loop,
        replication: int,
        unroll: int,
        plan: InterfacePlan,
        ports: Dict[str, int],
        ctx: FunctionContext,
    ) -> Optional[Tuple[DFG, PipelineResult, AreaBreakdown]]:
        """The replicated body DFG, pipeline and area of ``loop``, or None
        for an empty body.  Synthesized once per ``(loop, replication,
        unroll, timing signature)``: the recurrence distances depend on
        ``unroll`` and everything else ``pipeline_loop`` reads on the
        signature, taken over the body's memory nodes because replicas
        share their instruction's timing."""
        dfg = self._unit_dfg(loop, loop.blocks, ctx)
        if not dfg.nodes:
            return None
        key = (
            loop, replication, unroll,
            plan.timing_signature(dfg.memory_nodes(), ports),
        )
        unit = self._pipelined_units.get(key)
        if unit is None:
            unrolled = dfg.replicate(replication)
            recurrences = loop_recurrences(loop, unrolled, ctx, unroll)
            if "dependence" not in self.proofs:
                recurrences = [(load, store, 1) for load, store, _ in recurrences]
            result = pipeline_loop(
                unrolled, self.techlib, plan.access_timing, ports, recurrences,
            )
            unit = self._pipelined_units[key] = (
                unrolled, result,
                pipelined_datapath_area(
                    unrolled, result.ii, result.depth, self.techlib,
                    result.schedule,
                ),
            )
        return unit

    def sequential_unit(
        self,
        block: BasicBlock,
        plan: InterfacePlan,
        ports: Dict[str, int],
        ctx: FunctionContext,
    ) -> Optional[Tuple[DFG, Schedule, AreaBreakdown]]:
        """The DFG, schedule and area of ``block``, or None for a
        control-only block.  Synthesized once per ``(block, timing
        signature)``."""
        dfg = self._unit_dfg(block, [block], ctx)
        if not dfg.nodes:
            return None
        key = (block, plan.timing_signature(dfg.memory_nodes(), ports))
        unit = self._sequential_units.get(key)
        if unit is None:
            schedule = schedule_dfg(
                dfg, self.techlib, plan.access_timing, ports
            )
            unit = self._sequential_units[key] = (
                dfg, schedule,
                sequential_datapath_area(dfg, schedule, self.techlib),
            )
        return unit

    # Helpers -------------------------------------------------------------------------

    @staticmethod
    def _lane_factor(loop: Loop, loop_plans: Dict[Loop, LoopPlan]) -> int:
        """Product of enclosing loops' unroll factors (pipeline lanes)."""
        lanes = 1
        ancestor = loop.parent
        while ancestor is not None and ancestor in loop_plans:
            lanes *= loop_plans[ancestor].unroll
            ancestor = ancestor.parent
        return lanes

    def _top_level_nests(
        self, region: Region, ctx: FunctionContext
    ) -> List[Loop]:
        """Loops in the region whose parent is outside the region."""
        loops = self._loops_in_region(region, ctx)
        loop_set = set(loops)
        return [l for l in loops if l.parent not in loop_set]

    def _loops_in_region(self, region: Region, ctx: FunctionContext) -> List[Loop]:
        loops = self._region_loops.get(region)
        if loops is None:
            loops = self._region_loops[region] = [
                loop for loop in ctx.loop_info.loops
                if loop.blocks <= region.blocks
            ]
        return loops

    def _accesses_in_region(
        self, region: Region, ctx: FunctionContext
    ) -> List[AccessInfo]:
        accesses = self._region_accesses.get(region)
        if accesses is None:
            accesses = self._region_accesses[region] = [
                ctx.access.info(inst)
                for block in ctx.ordered_blocks(region.blocks)
                for inst in block.instructions
                if isinstance(inst, (Load, Store))
            ]
        return accesses

    def _legal_unroll(
        self, loop: Loop, ctx: FunctionContext, factor: Optional[int]
    ) -> bool:
        """:func:`unroll_legal`, decided once per ``(loop, factor)``."""
        key = (loop, factor)
        legal = self._unroll_legal.get(key)
        if legal is None:
            legal = self._unroll_legal[key] = unroll_legal(
                loop, ctx.memdep, factor
            )
        return legal
