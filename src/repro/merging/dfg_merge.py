"""Reconfigurable datapath construction from matched units (paper §III-E).

Merging two datapath units produces a *reconfigurable datapath unit*: shared
functional units with multiplexers on inputs whose wiring differs between
the member kernels, driven by reconfiguration bit registers loaded by the
global *Ctrl* unit.  The merged unit behaves like a normal unit for further
merging rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..hls.dfg import DFG, DFGNode
from ..hls.techlib import CONFIG_BIT_AREA_UM2, TechLibrary
from .opmatch import MatchResult, index_merged, match_units, unit_fu_area


@dataclass
class MergedUnit:
    """A (possibly reconfigurable) datapath unit in the merge pool."""

    name: str
    dfg: DFG
    owner: int                        # accelerator group id (union-find root)
    member_names: List[str] = field(default_factory=list)
    mux_area: float = 0.0             # accumulated reconfiguration overhead
    config_bits: int = 0

    def fu_area(self, techlib: TechLibrary) -> float:
        return unit_fu_area(self.dfg, techlib)

    def total_area(self, techlib: TechLibrary) -> float:
        return (
            self.fu_area(techlib)
            + self.mux_area
            + self.config_bits * CONFIG_BIT_AREA_UM2
        )


def merge_pair(
    unit_a: MergedUnit,
    unit_b: MergedUnit,
    techlib: TechLibrary,
    match: Optional[MatchResult] = None,
) -> MergedUnit:
    """Merge ``unit_b`` into ``unit_a``, producing the reconfigurable unit.

    The merged op set keeps one instance per matched pair plus all unmatched
    ops from both sides; the match's mux/config overhead accumulates on top
    of any overhead the members already carried. The merged DFG's op-key
    index is derived from the members' indexes, not rebuilt from its nodes.
    """
    if match is None:
        match = match_units(unit_a.dfg, unit_b.dfg, techlib)
    counterpart = {b: a for a, b in match.pairs}
    # A shared instance must be wide enough for both members.
    shared_width = {a: max(a.bits, b.bits) for a, b in match.pairs}

    # Build the merged DFG from clones so the member units stay intact:
    # every A node survives; unmatched B nodes are kept with their edges to
    # matched producers rewired onto the shared (A-side) instances.
    clone_of = {}
    merged_nodes: List[DFGNode] = []

    def clone(node: DFGNode) -> DFGNode:
        copy = DFGNode(node.inst, node.copy, shared_width.get(node, node.width))
        clone_of[node] = copy
        merged_nodes.append(copy)
        return copy

    def resolve(pred: DFGNode) -> DFGNode:
        pred = counterpart.get(pred, pred)
        return clone_of[pred]

    for node in unit_a.dfg.nodes:
        clone(node)
    for node in unit_b.dfg.nodes:
        if node not in counterpart:
            clone(node)
    for original, copy in list(clone_of.items()):
        for pred in original.preds:
            resolved = resolve(pred)
            copy.preds.append(resolved)
            resolved.succs.append(copy)
        for pred in original.order_preds:
            resolved = resolve(pred)
            copy.order_preds.append(resolved)
            resolved.succs.append(copy)

    merged = DFG(merged_nodes)
    index_merged(merged, unit_a.dfg, unit_b.dfg, match)
    return MergedUnit(
        name=f"({unit_a.name}+{unit_b.name})",
        dfg=merged,
        owner=unit_a.owner,
        member_names=unit_a.member_names + unit_b.member_names,
        mux_area=(
            unit_a.mux_area + unit_b.mux_area
            + match.mux_area + match.width_glue_area
        ),
        config_bits=unit_a.config_bits + unit_b.config_bits + match.config_bits,
    )


def estimate_pair_saving(
    unit_a: MergedUnit, unit_b: MergedUnit, techlib: TechLibrary
) -> Tuple[float, MatchResult]:
    """Net area saving of merging the pair (shared FUs minus mux overhead)."""
    match = match_units(unit_a.dfg, unit_b.dfg, techlib)
    return match.net_saving, match
