"""Resource-constrained list scheduling with operator chaining.

This is the HLS scheduler of the substrate: given a DFG, the technology
library, and the per-access interface assignment, it produces a cycle
schedule honoring

* data and memory-ordering dependences,
* operator chaining within the clock period (combinational ops pack into a
  cycle while their accumulated delay fits),
* multi-cycle pipelined operators (fadd, fmul, loads...),
* shared-port contention: accesses mapped to the *coupled* interface share
  the accelerator's load/store unit; *scratchpad* accesses share their
  buffer's ports (raised by memory partitioning); *decoupled* accesses have
  private FIFO ports and never contend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Optional, Tuple

from .dfg import DFG, DFGNode
from .techlib import TechLibrary


@dataclass(frozen=True)
class AccessTiming:
    """Scheduling view of one memory access under a chosen interface.

    ``latency``    — cycles from issue to data available.
    ``port``       — port-group name accesses contend on (None = private).
    ``occupancy``  — cycles the access blocks its port group.
    """

    latency: int
    port: Optional[str]
    occupancy: int = 1


@dataclass
class Schedule:
    """Result of list scheduling one DFG."""

    start: Dict[DFGNode, int] = field(default_factory=dict)
    finish: Dict[DFGNode, int] = field(default_factory=dict)
    length: int = 0  # total cycles (states) of the schedule


class PortTable:
    """Tracks busy cycles per port group during scheduling."""

    def __init__(self, port_counts: Dict[str, int]):
        self.port_counts = port_counts
        self._busy: Dict[str, Dict[int, int]] = {name: {} for name in port_counts}

    def earliest_free(self, port: str, cycle: int, occupancy: int) -> int:
        limit = self.port_counts.get(port, 1)
        busy = self._busy.setdefault(port, {})
        while True:
            if all(busy.get(cycle + i, 0) < limit for i in range(occupancy)):
                return cycle
            cycle += 1

    def reserve(self, port: str, cycle: int, occupancy: int) -> None:
        busy = self._busy.setdefault(port, {})
        for i in range(occupancy):
            busy[cycle + i] = busy.get(cycle + i, 0) + 1


def schedule_dfg(
    dfg: DFG,
    techlib: TechLibrary,
    access_timing: Callable[[DFGNode], AccessTiming],
    port_counts: Optional[Dict[str, int]] = None,
) -> Schedule:
    """List-schedule ``dfg`` and return per-node start/finish cycles.

    ``access_timing`` supplies interface latency and port contention for each
    memory node (see :mod:`repro.model.interfaces`).

    The schedule is a function of ``dfg``, ``techlib`` and, per memory node
    in DFG order, the ``(latency, port, occupancy)`` of its timing with the
    port's multiplicity in ``port_counts``.  Port names only group
    contending accesses, so renaming ports consistently leaves the schedule
    unchanged.  The estimator caches schedules on exactly this dependency
    (``InterfacePlan.timing_signature``); reading anything else here breaks
    that cache.
    """
    ports = PortTable(dict(port_counts or {}))
    schedule = Schedule()
    clock = techlib.clock_ns
    # (cycle, offset_ns) at which each node's result becomes available.
    available: Dict[DFGNode, Tuple[int, float]] = {}

    for node in dfg.topological_order():
        # Earliest start from dependences.
        ready_cycle = 0
        ready_offset = 0.0
        for pred in node.preds:
            cycle, offset = available[pred]
            if (cycle, offset) > (ready_cycle, ready_offset):
                ready_cycle, ready_offset = cycle, offset
        for pred in node.order_preds:
            # Ordering edges release at the predecessor's finish boundary.
            cycle = schedule.finish[pred]
            if (cycle, 0.0) > (ready_cycle, ready_offset):
                ready_cycle, ready_offset = cycle, 0.0

        if node.is_memory:
            timing = access_timing(node)
            start = ready_cycle if ready_offset == 0.0 else ready_cycle + 1
            if timing.port is not None:
                start = ports.earliest_free(timing.port, start, timing.occupancy)
                ports.reserve(timing.port, start, timing.occupancy)
            finish = start + max(1, timing.latency)
            available[node] = (finish, 0.0)
            schedule.start[node] = start
            schedule.finish[node] = finish
        else:
            info = techlib.op(node.resource, node.bits)
            if info.cycles == 0:
                # Combinational: chain if the delay still fits this cycle.
                if ready_offset + info.delay_ns <= clock:
                    start = ready_cycle
                    available[node] = (start, ready_offset + info.delay_ns)
                else:
                    start = ready_cycle + 1
                    available[node] = (start, info.delay_ns)
                schedule.start[node] = start
                schedule.finish[node] = start + 1
            else:
                # Registered multi-cycle operator: starts at a cycle boundary.
                start = ready_cycle if ready_offset == 0.0 else ready_cycle + 1
                finish = start + info.cycles
                available[node] = (finish, 0.0)
                schedule.start[node] = start
                schedule.finish[node] = finish

    schedule.length = max(
        (schedule.finish[node] for node in dfg.nodes), default=1
    )
    schedule.length = max(1, schedule.length)
    return schedule


def functional_unit_usage(dfg: DFG, schedule: Schedule) -> Dict[str, int]:
    """Maximum number of same-class operations active in any one cycle.

    This is the number of functional units a *sequential* (time-multiplexed)
    implementation needs per resource class.
    """
    per_cycle: Dict[Tuple[str, int], int] = {}
    peak: Dict[str, int] = {}
    for node in dfg.nodes:
        resource = node.resource
        for cycle in range(schedule.start[node], schedule.finish[node]):
            key = (resource, cycle)
            per_cycle[key] = per_cycle.get(key, 0) + 1
            if per_cycle[key] > peak.get(resource, 0):
                peak[resource] = per_cycle[key]
    return peak


def register_bits(dfg: DFG, schedule: Schedule) -> int:
    """Bits of state needed for values that cross a cycle boundary."""
    bits = 0
    for node in dfg.nodes:
        if not node.succs:
            continue
        last_use = max(schedule.start[succ] for succ in node.succs)
        if last_use > schedule.start[node]:
            bits += node.bits
    return bits


def critical_path_cycles(
    dfg: DFG,
    techlib: TechLibrary,
    access_timing: Callable[[DFGNode], AccessTiming],
    source: DFGNode,
    sink: DFGNode,
) -> int:
    """Longest-path latency in cycles from ``source`` to ``sink`` (inclusive).

    Used for RecMII: the recurrence cycle length of a loop-carried flow
    dependence is the path latency from the loading access through the
    computation to the storing access.
    """
    longest: Dict[DFGNode, float] = {}

    def node_latency(node: DFGNode) -> float:
        if node.is_memory:
            return max(1, access_timing(node).latency)
        info = techlib.op(node.resource, node.bits)
        return info.cycles if info.cycles > 0 else info.delay_ns / techlib.clock_ns

    # No node before ``source`` in the order is reachable from it.
    longest[source] = node_latency(source)
    order = dfg.topological_order()
    for node in islice(order, order.index(source) + 1, None):
        best = None
        for pred in node.all_preds():
            if pred in longest:
                value = longest[pred]
                if best is None or value > best:
                    best = value
        if best is not None:
            longest[node] = best + node_latency(node)
    if sink not in longest:
        return 1
    return max(1, round(longest[sink]))
