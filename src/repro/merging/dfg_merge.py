"""Reconfigurable datapath construction from matched units (paper §III-E).

Merging two datapath units produces a *reconfigurable datapath unit*: shared
functional units with multiplexers on inputs whose wiring differs between
the member kernels, driven by reconfiguration bit registers loaded by the
global *Ctrl* unit.  The merged unit behaves like a normal unit for further
merging rounds.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Tuple

from ..hls.dfg import DFG
from ..hls.techlib import CONFIG_BIT_AREA_UM2, TechLibrary
from .opmatch import MatchResult, match_units, op_index


class MergedUnit:
    """A (possibly reconfigurable) datapath unit in the merge pool.

    ``index``, the unit's positional form, is all that matching, bounds,
    area and merging read. A leaf unit wraps an accelerator's DFG; a
    merged unit builds its DFG from ``index`` when ``dfg`` is first read.
    """

    def __init__(
        self, name: str, dfg: DFG, owner: int,
        member_names: Optional[List[str]] = None,
    ):
        self.name = name
        self.index = op_index(dfg)
        self.dfg = dfg
        self.owner = owner            # accelerator group id (union-find root)
        self.member_names = [] if member_names is None else member_names
        self.mux_area = 0.0           # accumulated reconfiguration overhead
        self.config_bits = 0

    @cached_property
    def dfg(self) -> DFG:
        return self.index.to_dfg()

    def total_area(self, techlib: TechLibrary) -> float:
        return (
            self.index.fu_area(techlib)
            + self.mux_area
            + self.config_bits * CONFIG_BIT_AREA_UM2
        )


def merge_pair(
    unit_a: MergedUnit, unit_b: MergedUnit, techlib: TechLibrary,
    match: Optional[MatchResult] = None,
) -> MergedUnit:
    """Merge ``unit_b`` into ``unit_a``, producing the reconfigurable unit.

    The merged op set keeps one instance per matched pair plus all unmatched
    ops from both sides (:meth:`_OpIndex.merged`); the match's mux/config
    overhead accumulates on top of any overhead the members already
    carried.
    """
    if match is None:
        match = match_units(unit_a.index, unit_b.index, techlib)
    merged = MergedUnit.__new__(MergedUnit)  # no DFG until one is read
    vars(merged).update(
        name=f"({unit_a.name}+{unit_b.name})",
        index=unit_a.index.merged(unit_b.index, match.positions),
        owner=unit_a.owner,
        member_names=unit_a.member_names + unit_b.member_names,
        mux_area=(
            unit_a.mux_area + unit_b.mux_area
            + match.mux_area + match.width_glue_area
        ),
        config_bits=unit_a.config_bits + unit_b.config_bits + match.config_bits,
    )
    return merged


def estimate_pair_saving(
    unit_a: MergedUnit, unit_b: MergedUnit, techlib: TechLibrary
) -> Tuple[float, MatchResult]:
    """Net area saving of merging the pair (shared FUs minus mux overhead)."""
    match = match_units(unit_a.index, unit_b.index, techlib)
    return match.net_saving, match
