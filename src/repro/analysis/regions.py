"""Single-entry-single-exit (SESE) region discovery and the program
structure tree (PST).

A *ctrl-flow* region is a pair ``(entry, exit)`` of blocks such that

* ``entry`` dominates ``exit`` and ``exit`` post-dominates ``entry``;
* every edge from outside the region targets ``entry``;
* every edge leaving the region targets ``exit``.

The region's block set contains ``entry`` and everything reachable from it
without passing through ``exit``; ``exit`` itself is *not* part of the region.
Each basic block is additionally a trivial *bb* region (paper §III-B).

The PST [Johnson et al., PLDI'94] organizes regions by containment; Cayman's
wPST (see :mod:`repro.analysis.wpst`) glues per-function PSTs under function
and root vertices.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from ..ir import BasicBlock, Function
from .cfg import predecessor_map
from .dominators import postdominator_tree
from .loops import LoopInfo


class Region:
    """A region vertex of the PST: either a ``bb`` leaf or a ``ctrl-flow`` node."""

    def __init__(
        self,
        kind: str,
        entry: BasicBlock,
        blocks: FrozenSet[BasicBlock],
        exit_block: Optional[BasicBlock] = None,
    ):
        if kind not in ("bb", "ctrl-flow"):
            raise ValueError(f"invalid region kind {kind!r}")
        self.kind = kind
        self.entry = entry
        self.exit = exit_block
        self.blocks = blocks
        self.parent: Optional["Region"] = None
        self.children: List["Region"] = []

    @property
    def function(self) -> Function:
        return self.entry.parent

    @property
    def name(self) -> str:
        if self.kind == "bb":
            return f"bb:{self.entry.name}"
        base = self.entry.name
        for suffix in (".header", ".cond"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        return f"region:{base}"

    @property
    def size(self) -> int:
        return len(self.blocks)

    def contains(self, other: "Region") -> bool:
        """Strict containment by block sets (bb leaves contained by equality)."""
        if other is self:
            return False
        return other.blocks <= self.blocks and other.blocks != self.blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Region {self.name} kind={self.kind} size={self.size}>"


def _region_blocks(
    entry: BasicBlock, exit_block: BasicBlock
) -> Set[BasicBlock]:
    """Blocks reachable from ``entry`` without passing through ``exit``."""
    seen: Set[BasicBlock] = set()
    stack = [entry]
    while stack:
        block = stack.pop()
        if block in seen or block is exit_block:
            continue
        seen.add(block)
        stack.extend(block.successors)
    return seen


def _is_sese(
    entry: BasicBlock,
    exit_block: BasicBlock,
    blocks: Set[BasicBlock],
    preds_of: Dict[BasicBlock, List[BasicBlock]],
) -> bool:
    """Check the SESE side-entry / side-exit conditions for a candidate pair."""
    for block in blocks:
        if block is not entry:
            for pred in preds_of[block]:
                if pred not in blocks:
                    return False
        for succ in block.successors:
            if succ not in blocks and succ is not exit_block:
                return False
    # The exit must not loop back into the region except through entry
    # (a back edge to the entry would mean the "region" is re-enterable).
    for succ in exit_block.successors:
        if succ in blocks and succ is not entry:
            return False
    return True


def find_sese_regions(func: Function) -> List[Region]:
    """All non-trivial ctrl-flow SESE regions of ``func``.

    Candidate (entry, exit) pairs are filtered by the dominance conditions
    first, then verified structurally.  Duplicate block sets keep the pair
    with the smallest exit distance (they are the same region).
    """
    domtree = LoopInfo.of(func).domtree
    postdom = postdominator_tree(func)
    preds_of = predecessor_map(func)

    regions: Dict[FrozenSet[BasicBlock], Region] = {}
    for entry in func.blocks:
        if not domtree.contains(entry):
            continue
        for exit_block in func.blocks:
            if exit_block is entry:
                continue
            if not domtree.dominates(entry, exit_block):
                continue
            if not postdom.contains(entry) or not postdom.contains(exit_block):
                continue
            if not postdom.dominates(exit_block, entry):
                continue
            blocks = _region_blocks(entry, exit_block)
            if exit_block in blocks:
                continue
            if len(blocks) <= 1:
                continue  # single-block regions are bb regions already
            if not _is_sese(entry, exit_block, blocks, preds_of):
                continue
            key = frozenset(blocks)
            if key not in regions:
                regions[key] = Region("ctrl-flow", entry, key, exit_block)
    return _laminar_family(
        sorted(regions.values(), key=lambda r: (r.size, r.entry.name))
    )


def _laminar_family(regions: List[Region]) -> List[Region]:
    """Keep a laminar (tree-compatible) subset of the candidate regions.

    Exhaustive (entry, exit) enumeration can produce *chain* regions that
    overlap without nesting — e.g. ``{entry, loop}`` and ``{loop, exit}``.
    The PST requires a laminar family, so regions are admitted smallest
    first and dropped when they partially overlap an already-kept region.
    Smaller regions (loops, conditionals) always survive, matching the
    canonical-region preference of Johnson et al.
    """
    kept: List[Region] = []
    for region in regions:  # already sorted by ascending size
        compatible = True
        for other in kept:
            overlap = region.blocks & other.blocks
            if overlap and overlap != other.blocks and overlap != region.blocks:
                compatible = False
                break
        if compatible:
            kept.append(region)
    return kept


class ProgramStructureTree:
    """Per-function PST: ctrl-flow regions nested by containment, with every
    basic block attached as a ``bb`` leaf under its innermost region."""

    def __init__(self, func: Function):
        self.func = func
        self.ctrl_regions = find_sese_regions(func)
        self.bb_regions: List[Region] = [
            Region("bb", block, frozenset([block])) for block in func.blocks
        ]
        self.top_level: List[Region] = []
        self._nest()

    def _nest(self) -> None:
        # Parent of each ctrl-flow region = smallest strictly containing region.
        by_size = sorted(self.ctrl_regions, key=lambda r: r.size)
        for i, region in enumerate(by_size):
            parent = None
            for candidate in by_size[i + 1:]:
                if candidate.contains(region):
                    parent = candidate
                    break
            region.parent = parent
            if parent is not None:
                parent.children.append(region)
            else:
                self.top_level.append(region)

        # Attach bb leaves to the smallest ctrl-flow region containing them,
        # unless an inner ctrl-flow child already owns the block.
        for leaf in self.bb_regions:
            owner = None
            for candidate in by_size:  # smallest-first
                if leaf.entry in candidate.blocks:
                    owner = candidate
                    break
            leaf.parent = owner
            if owner is not None:
                covered = any(
                    leaf.entry in child.blocks for child in owner.children
                    if child.kind == "ctrl-flow"
                )
                if not covered:
                    owner.children.append(leaf)
            else:
                self.top_level.append(leaf)

    def dump(self) -> str:
        """Indented textual rendering (tests and debugging)."""
        lines: List[str] = [f"pst {self.func.name}"]

        def visit(region: Region, depth: int) -> None:
            lines.append("  " * depth + region.name)
            for child in sorted(region.children, key=lambda r: r.entry.name):
                visit(child, depth + 1)

        for region in sorted(self.top_level, key=lambda r: r.entry.name):
            visit(region, 1)
        return "\n".join(lines)
