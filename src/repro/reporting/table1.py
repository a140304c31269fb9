"""Table I regeneration: qualitative capability comparison.

The capability flags are derived from the implemented framework classes so
the table stays truthful to the code: e.g. Cayman's model really does
explore pipelining/unrolling, the QsCores model really is sequential with a
scan-chain interface, and the NOVIA model really rejects memory accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..baselines.novia import _EXCLUDED_RESOURCES
from ..baselines.qscores import QsCoresModel
from ..ir import Module
from ..model.estimator import AcceleratorModel
from .formats import render_table


@dataclass
class Capability:
    method: str
    design_entry: str
    candidate_selection: str
    control_flow: str
    data_access: str
    hardware_sharing: str


def capability_matrix() -> List[Capability]:
    """The Table I rows, with Cayman/NOVIA/QsCores derived from the code."""
    cayman_modes = AcceleratorModel.INTERFACE_MODES
    # Cayman's model pipelines/unrolls by default (pipeline_innermost=True).
    cayman_ctrl = "optimized"
    rows = [
        Capability(
            method="HLS",
            design_entry="kernel",
            candidate_selection="manual",
            control_flow="optimized",
            data_access="specified",
            hardware_sharing="/",
        ),
        Capability(
            method="CFU (NOVIA)",
            design_entry="application",
            candidate_selection="auto",
            control_flow="/",
            data_access=(
                "scalar-only" if "load" in _EXCLUDED_RESOURCES else "memory"
            ),
            hardware_sharing="restricted",
        ),
        Capability(
            method="OCA (QsCores)",
            design_entry="application",
            candidate_selection="auto",
            control_flow=(
                "sequential" if not _qscores_pipelines() else "optimized"
            ),
            data_access=(
                "slow" if QsCoresModel.INTERFACE_MODES == ("scanchain",) else "fast"
            ),
            hardware_sharing="restricted",
        ),
        Capability(
            method="Cayman",
            design_entry="application",
            candidate_selection="auto",
            control_flow=cayman_ctrl,
            data_access=(
                "specialized" if "full" in cayman_modes else "coupled"
            ),
            hardware_sharing="flexible",
        ),
    ]
    return rows


def _qscores_pipelines() -> bool:
    """Whether the QsCores model pipelines or unrolls loops, read from one
    built on an empty module (its facts are lazy, so no analysis runs)."""
    model = QsCoresModel(Module(), profile=None)
    return model.pipeline_innermost or max(model.unroll_factors) > 1


def render_table1() -> str:
    rows = capability_matrix()
    return render_table(
        ["method", "design entry", "candidate selection", "control flow",
         "data access", "hardware sharing"],
        [
            [r.method, r.design_entry, r.candidate_selection, r.control_flow,
             r.data_access, r.hardware_sharing]
            for r in rows
        ],
    )
