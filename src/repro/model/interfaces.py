"""Processor–accelerator data access interface models (paper §III-C, Fig. 3).

Three interface types are modeled per memory-access operation:

* **coupled** — the access goes through the accelerator's shared load/store
  unit to the memory system; the accelerator stalls for the round trip and
  all coupled accesses contend on the single LSU port.
* **decoupled** — a dedicated address generation unit (AGU) runs ahead and a
  FIFO buffers data, hiding the memory latency; only legal for *stream*
  accesses; costs AGU + FIFO area per access.
* **scratchpad** — a dedicated buffer caches the access footprint inside the
  accelerator; data moves via DMA before/after execution; the buffer can be
  partitioned for parallel access; costs SRAM + DMA area.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..ir import Instruction, Load
from ..hls.dfg import DFGNode
from ..hls.scheduling import AccessTiming
from ..hls.techlib import (
    AGU_AREA_UM2,
    SCANCHAIN_OCCUPANCY,
    COUPLED_LOAD_LATENCY,
    COUPLED_STORE_LATENCY,
    DECOUPLED_LATENCY,
    DMA_AREA_UM2,
    FIFO_AREA_UM2,
    LSU_AREA_UM2,
    SCANCHAIN_LATENCY,
    SPAD_LATENCY,
    TechLibrary,
)


class InterfaceKind(enum.Enum):
    """The three specialized interfaces, plus the baselines' scan chain."""

    COUPLED = "coupled"
    DECOUPLED = "decoupled"
    SCRATCHPAD = "scratchpad"
    SCANCHAIN = "scanchain"  # QsCores-style slow interface (baseline only)

    @property
    def short(self) -> str:
        return {"coupled": "C", "decoupled": "D", "scratchpad": "S",
                "scanchain": "X"}[self.value]


@dataclass
class InterfaceAssignment:
    """Interface decision for one memory-access instruction."""

    inst: Instruction
    kind: InterfaceKind
    #: Base object key for scratchpad grouping (accesses to one object share
    #: one buffer).
    spad_group: Optional[object] = None
    #: Scratchpad footprint in bytes (sizing the buffer), per invocation.
    spad_bytes: int = 0
    #: Scratchpad bank partitioning (banks built — the area claim).
    partitions: int = 1
    #: The banking scheme backing ``partitions`` (a
    #: :class:`~repro.analysis.banking.BankingScheme`), or None when the
    #: partitioning is a bare claim with no scheme attached.
    banking: Optional[object] = None
    #: Whether a :class:`~repro.analysis.banking.BankingVerdict` proved the
    #: scheme conflict-free.  Unproven partitions still cost their area but
    #: the scheduler only gets one dual-ported bank's worth of ports, so the
    #: group's unrolled accesses serialize (see ``port_counts``).
    banking_proven: bool = True
    #: The full verdict, when the estimator ran the analysis (diagnostics).
    banking_verdict: Optional[object] = None
    #: Proven inter-iteration reuse: when ``reuse_distance`` is set, this
    #: load is fed from a shift-register tap ``reuse_distance`` iterations
    #: behind ``reuse_source`` (the producer access instruction) instead of
    #: a scratchpad port — only ever set from a *proven*
    #: :class:`~repro.analysis.reuse.ReusePair`, never assumed.
    reuse_source: Optional[Instruction] = None
    reuse_distance: Optional[int] = None
    #: Register stages this consumer needs on the producer's chain
    #: (distance + lanes − 1); the deepest consumer prices the chain.
    reuse_depth: int = 0
    #: Bits per register stage (the element width).
    reuse_bits: int = 0

    @property
    def is_load(self) -> bool:
        return isinstance(self.inst, Load)

    @property
    def reuse_buffered(self) -> bool:
        return (
            self.kind is InterfaceKind.SCRATCHPAD
            and self.reuse_distance is not None
        )

    @property
    def proven_partitions(self) -> int:
        """Banks the scheduler may actually use in parallel."""
        return max(1, self.partitions) if self.banking_proven else 1


@dataclass
class InterfacePlan:
    """All interface assignments of one accelerator."""

    assignments: Dict[Instruction, InterfaceAssignment] = field(default_factory=dict)

    def assign(self, assignment: InterfaceAssignment) -> None:
        self.assignments[assignment.inst] = assignment

    def of(self, inst: Instruction) -> InterfaceAssignment:
        return self.assignments[inst]

    def counts(self) -> Dict[str, int]:
        """Interface usage counts — the #C/#D/#S columns of Table II."""
        counts = {"coupled": 0, "decoupled": 0, "scratchpad": 0, "scanchain": 0}
        for assignment in self.assignments.values():
            counts[assignment.kind.value] += 1
        return counts

    def spad_port_names(self) -> Dict[object, str]:
        """Stable scratchpad port name per group.

        Groups are numbered by first-assignment order (assignments are made
        in deterministic block order), and labeled with the base object's
        name — never ``id()``, so traces, reports, and cache keys reproduce
        across processes.
        """
        cache = getattr(self, "_port_name_cache", None)
        if cache is not None and cache[0] == len(self.assignments):
            return cache[1]
        names: Dict[object, str] = {}
        for assignment in self.assignments.values():
            if assignment.kind is not InterfaceKind.SCRATCHPAD:
                continue
            group = assignment.spad_group
            if group not in names:
                label = getattr(group, "name", None) or "g"
                names[group] = f"spad:{len(names)}:{label}"
        self._port_name_cache = (len(self.assignments), names)
        return names

    # Scheduling hooks -------------------------------------------------------------

    def access_timing(self, node: DFGNode) -> AccessTiming:
        """Latency/port view of one DFG memory node for the scheduler."""
        assignment = self.assignments.get(node.inst)
        if assignment is None:
            # Unassigned accesses default to the coupled path.
            kind = InterfaceKind.COUPLED
            partitions = 1
            group = None
        else:
            kind = assignment.kind
            partitions = assignment.partitions
            group = assignment.spad_group
        if kind is InterfaceKind.COUPLED:
            latency = (
                COUPLED_LOAD_LATENCY if isinstance(node.inst, Load)
                else COUPLED_STORE_LATENCY
            )
            return AccessTiming(latency=latency, port="lsu", occupancy=1)
        if kind is InterfaceKind.DECOUPLED:
            return AccessTiming(latency=DECOUPLED_LATENCY, port=None)
        if kind is InterfaceKind.SCRATCHPAD:
            if assignment is not None and assignment.reuse_buffered:
                # Proven reuse: the value comes from a register tap of the
                # producer's shift chain — single-cycle, no port pressure.
                return AccessTiming(latency=1, port=None)
            return AccessTiming(
                latency=SPAD_LATENCY, port=self.spad_port_names()[group],
                occupancy=1,
            )
        return AccessTiming(
            latency=SCANCHAIN_LATENCY, port="scan", occupancy=SCANCHAIN_OCCUPANCY
        )

    def port_counts(self) -> Dict[str, int]:
        """Port multiplicities for the scheduler / ResMII.

        Scratchpad ports come from the *proven* parallelism, not the claimed
        partitioning: a group whose banking scheme has no conflict-free
        proof exposes one dual-ported bank (2 ports), so its unrolled
        accesses serialize through the port table instead of being assumed
        parallel.
        """
        ports: Dict[str, int] = {"lsu": 1, "scan": 1}
        names = self.spad_port_names()
        for assignment in self.assignments.values():
            if assignment.kind is InterfaceKind.SCRATCHPAD:
                key = names[assignment.spad_group]
                # Dual-ported banks: proven banks x 2 ports each.
                ports[key] = max(
                    ports.get(key, 0), 2 * assignment.proven_partitions
                )
        return ports

    def timing_signature(
        self, nodes: Iterable[DFGNode], port_counts: Dict[str, int]
    ) -> Tuple:
        """Everything the scheduler reads of this plan for one unit.

        ``nodes`` are the unit's memory nodes in DFG order; ``port_counts``
        is this plan's :meth:`port_counts`.  Per node the signature holds
        ``(latency, port, occupancy)`` of its :meth:`access_timing`, with
        ``port`` ``None`` for a private port, else the port's
        first-appearance index within the unit paired with its
        multiplicity.  Port names only group contending accesses, so plans
        that number their scratchpad groups differently share a signature,
        while a change in proven banking (a port's multiplicity) splits it.
        """
        index: Dict[str, int] = {}
        signature = []
        for node in nodes:
            timing = self.access_timing(node)
            port = timing.port
            if port is not None:
                port = (index.setdefault(port, len(index)),
                        port_counts.get(port, 1))
            signature.append((timing.latency, port, timing.occupancy))
        return tuple(signature)

    # Area / transfer cost ------------------------------------------------------------

    def interface_area(self, techlib: TechLibrary) -> float:
        """Total interface area of the plan.

        Coupled accesses share one LSU; each decoupled access owns an
        AGU + FIFO; each scratchpad *group* owns one (partitioned) buffer
        plus a DMA engine.
        """
        area = 0.0
        counts = self.counts()
        if counts["coupled"] > 0:
            area += LSU_AREA_UM2
        area += counts["decoupled"] * (AGU_AREA_UM2 + FIFO_AREA_UM2)
        if counts["scanchain"] > 0:
            area += LSU_AREA_UM2  # scan-chain master
        for group, assignments in self.spad_groups().items():
            bytes_ = max(a.spad_bytes for a in assignments)
            partitions = max(a.partitions for a in assignments)
            # Banking adds per-bank overhead: model as sizing each bank for
            # its share plus the SRAM base cost per bank.
            per_bank = -(-bytes_ // max(1, partitions))
            area += sum(
                techlib.scratchpad_area(per_bank) for _ in range(max(1, partitions))
            )
            area += DMA_AREA_UM2
        area += self.reuse_register_area(techlib)
        return area

    def reuse_register_area(self, techlib: TechLibrary) -> float:
        """Shift-register area of every exploited reuse chain, priced per
        register stage."""
        return sum(
            (techlib.register_area(bits) * depth
             for depth, bits in self.reuse_chains()),
            0.0,
        )

    def reuse_chains(self) -> List[Tuple[int, int]]:
        """``(register stages, bits per stage)`` of every exploited reuse
        chain.  Consumers fed by the same producer share one chain; its
        deepest (lane-aware) and widest tap size it."""
        chains: Dict[tuple, List[InterfaceAssignment]] = {}
        for assignment in self.assignments.values():
            if assignment.reuse_buffered:
                key = (assignment.spad_group, assignment.reuse_source)
                chains.setdefault(key, []).append(assignment)
        return [
            (max(m.reuse_depth for m in members),
             max(m.reuse_bits for m in members))
            for members in chains.values()
        ]

    def dma_cycles_per_invocation(self, techlib: TechLibrary) -> float:
        """DMA synchronization cycles before/after one kernel invocation."""
        total = 0.0
        for group, assignments in self.spad_groups().items():
            bytes_ = max(a.spad_bytes for a in assignments)
            reads = any(a.is_load for a in assignments)
            writes = any(not a.is_load for a in assignments)
            directions = (1 if reads else 0) + (1 if writes else 0)
            total += directions * techlib.dma_cycles(bytes_)
        return total

    def spad_groups(self) -> Dict[object, List[InterfaceAssignment]]:
        """Every scratchpad group's assignments, in assignment order."""
        groups: Dict[object, List[InterfaceAssignment]] = {}
        for assignment in self.assignments.values():
            if assignment.kind is InterfaceKind.SCRATCHPAD:
                groups.setdefault(assignment.spad_group, []).append(assignment)
        return groups
