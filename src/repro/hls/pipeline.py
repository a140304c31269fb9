"""Loop pipelining: initiation-interval computation (modulo-scheduling model).

``II = max(1, ResMII, RecMII)`` where

* **ResMII** comes from contended resources — with the *coupled* interface
  every access shares the accelerator's load/store unit, so three accesses
  force II ≥ 3 (paper Fig. 4); *decoupled* and partitioned *scratchpad*
  interfaces remove the contention and allow II = 1;
* **RecMII** comes from loop-carried flow dependences: a recurrence of
  length L cycles with iteration distance d forces II ≥ ceil(L / d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .dfg import DFG, DFGNode
from .scheduling import AccessTiming, Schedule, critical_path_cycles, schedule_dfg
from .techlib import TechLibrary


@dataclass
class PipelineResult:
    """Outcome of pipelining one loop body DFG."""

    ii: int
    depth: int                    # pipeline depth in cycles (schedule length)
    res_mii: int
    rec_mii: int
    schedule: Schedule

    def latency(self, trip_count: float) -> float:
        """Total cycles to run ``trip_count`` iterations through the pipeline."""
        if trip_count <= 0:
            return 0.0
        return self.depth + (trip_count - 1) * self.ii


def resource_mii(
    dfg: DFG,
    access_timing: Callable[[DFGNode], AccessTiming],
    port_counts: Dict[str, int],
) -> int:
    """Minimum II forced by shared-port contention."""
    occupancy: Dict[str, int] = {}
    for node in dfg.memory_nodes():
        timing = access_timing(node)
        if timing.port is not None:
            occupancy[timing.port] = occupancy.get(timing.port, 0) + timing.occupancy
    mii = 1
    for port, total in occupancy.items():
        count = max(1, port_counts.get(port, 1))
        mii = max(mii, math.ceil(total / count))
    return mii


def recurrence_mii(
    dfg: DFG,
    techlib: TechLibrary,
    access_timing: Callable[[DFGNode], AccessTiming],
    recurrences: List[Tuple[DFGNode, DFGNode, int]],
) -> int:
    """Minimum II forced by loop-carried recurrences.

    ``recurrences`` lists ``(load_node, store_node, distance)`` triples: the
    value stored by ``store_node`` is consumed ``distance`` iterations later
    by ``load_node``.
    """
    mii = 1
    for load_node, store_node, distance in recurrences:
        cycle_latency = critical_path_cycles(
            dfg, techlib, access_timing, load_node, store_node
        )
        mii = max(mii, math.ceil(cycle_latency / max(1, distance)))
    return mii


def pipeline_loop(
    dfg: DFG,
    techlib: TechLibrary,
    access_timing: Callable[[DFGNode], AccessTiming],
    port_counts: Optional[Dict[str, int]] = None,
    recurrences: Optional[List[Tuple[DFGNode, DFGNode, int]]] = None,
) -> PipelineResult:
    """Compute the II and depth of a pipelined implementation of ``dfg``.

    Like :func:`~repro.hls.scheduling.schedule_dfg`, the result depends on
    ``access_timing`` and ``port_counts`` only through each memory node's
    ``(latency, port, occupancy)`` and its port's multiplicity (port names
    only group accesses); beyond those it reads ``dfg``, ``techlib`` and
    ``recurrences``.  The estimator caches results on that dependency.
    """
    ports = dict(port_counts or {})
    res = resource_mii(dfg, access_timing, ports)
    rec = recurrence_mii(dfg, techlib, access_timing, recurrences or [])
    ii = max(1, res, rec)
    schedule = schedule_dfg(dfg, techlib, access_timing, ports)
    return PipelineResult(
        ii=ii,
        depth=schedule.length,
        res_mii=res,
        rec_mii=rec,
        schedule=schedule,
    )
