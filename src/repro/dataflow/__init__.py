"""Dataflow analyses over the repro IR (paper §III-B soundness layer).

* :mod:`~repro.dataflow.framework` — the map-lattice forward worklist
  solver (one fact per SSA value, plain ``dict`` states) with loop-header
  widening and bounded narrowing, shared by intervals and known bits;
* :mod:`~repro.dataflow.interval` — per-SSA-value integer ranges with
  branch refinement and interprocedural argument seeding;
* :mod:`~repro.dataflow.pointsto` — Andersen-style may-point-to sets and
  the ``may_alias`` query backing memory-dependence analysis;
* :mod:`~repro.dataflow.bounds` — in-bounds proofs for loads/stores,
  consumed by the interpreter's check-elision fast path and the sanitizer;
* :mod:`~repro.dataflow.bitwidth` — known-bits ∧ demanded-bits proven
  widths driving datapath narrowing, FU merging and the width lint rules.
"""

from .framework import EnvDataflow
from .interval import Interval, IntervalAnalysis, ModuleIntervalAnalysis
from .pointsto import AllocSite, PointsToAnalysis
from .bounds import AccessWindow, BoundsAnalysis
from .bitwidth import (
    BitwidthAnalysis,
    DemandedBitsAnalysis,
    KnownBits,
    KnownBitsAnalysis,
    ModuleBitwidthAnalysis,
    demanded_truncate,
)

__all__ = [
    "EnvDataflow",
    "Interval",
    "IntervalAnalysis",
    "ModuleIntervalAnalysis",
    "AllocSite",
    "PointsToAnalysis",
    "AccessWindow",
    "BoundsAnalysis",
    "BitwidthAnalysis",
    "DemandedBitsAnalysis",
    "KnownBits",
    "KnownBitsAnalysis",
    "ModuleBitwidthAnalysis",
    "demanded_truncate",
]
