"""Natural-loop detection and loop-nest construction."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir import BasicBlock, CondBranch, Constant, Function, ICmp, Phi, Value
from .cfg import predecessor_map
from .dominators import DominatorTree, dominator_tree


class Loop:
    """A natural loop: header plus the set of blocks on paths to its latches."""

    def __init__(self, header: BasicBlock):
        self.header = header
        self.blocks: Set[BasicBlock] = {header}
        self.latches: List[BasicBlock] = []
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    @property
    def name(self) -> str:
        """Human-readable loop name derived from the header block label."""
        base = self.header.name
        for suffix in (".header", ".cond"):
            if base.endswith(suffix):
                return base[: -len(suffix)]
        return base

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    @property
    def is_innermost(self) -> bool:
        return not self.children

    def contains_loop(self, other: "Loop") -> bool:
        node: Optional[Loop] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def exit_edges(self) -> List[tuple]:
        """Edges (src, dst) leaving the loop."""
        result = []
        for block in self.blocks:
            for succ in block.successors:
                if succ not in self.blocks:
                    result.append((block, succ))
        return result

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if it exists."""
        outside = [p for p in self.header.predecessors if p not in self.blocks]
        if len(outside) == 1:
            return outside[0]
        return None

    def induction_phi(self) -> Optional[Phi]:
        """The canonical induction phi ``i = phi [init, preheader], [i+step, latch]``.

        Returns the first integer phi in the header whose back-edge value is
        an add/sub of the phi by a loop-invariant amount.
        """
        for phi in self.header.phis():
            if not phi.type.is_int:
                continue
            for value, pred in phi.incoming():
                if pred not in self.blocks:
                    continue
                if _is_increment_of(value, phi):
                    return phi
        return None

    def trip_count_estimate(self) -> Optional[int]:
        """Constant trip count when the bounds are literal, else None."""
        phi = self.induction_phi()
        if phi is None:
            return None
        init = step = bound = None
        for value, pred in phi.incoming():
            if pred in self.blocks:
                step = _increment_amount(value, phi)
            elif isinstance(value, Constant):
                init = value.value
        term = self.header.terminator
        if not isinstance(term, CondBranch):
            return None
        cond = term.condition
        if isinstance(cond, ICmp) and cond.operands[0] is phi:
            if isinstance(cond.operands[1], Constant):
                bound = cond.operands[1].value
                predicate = cond.predicate
            else:
                return None
        else:
            return None
        if init is None or step is None or bound is None or step == 0:
            return None
        if predicate == "slt" and step > 0:
            return max(0, -(-(bound - init) // step))
        if predicate == "sle" and step > 0:
            return max(0, -(-(bound - init + 1) // step))
        if predicate == "sgt" and step < 0:
            return max(0, -(-(init - bound) // -step))
        if predicate == "sge" and step < 0:
            return max(0, -(-(init - bound + 1) // -step))
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Loop {self.name} depth={self.depth} blocks={len(self.blocks)}>"


def _is_increment_of(value: Value, phi: Phi) -> bool:
    from ..ir import BinaryOp

    return (
        isinstance(value, BinaryOp)
        and value.opcode in ("add", "sub")
        and (value.lhs is phi or (value.opcode == "add" and value.rhs is phi))
    )


def _increment_amount(value: Value, phi: Phi) -> Optional[int]:
    from ..ir import BinaryOp

    if not isinstance(value, BinaryOp):
        return None
    other = None
    if value.lhs is phi:
        other = value.rhs
    elif value.rhs is phi and value.opcode == "add":
        other = value.lhs
    if isinstance(other, Constant):
        return other.value if value.opcode == "add" else -other.value
    return None


class LoopInfo:
    """All natural loops of a function, organized as a forest, with the
    forward dominator tree it was built from.

    Obtain it with :meth:`of`, which every pass and analysis shares.
    """

    def __init__(self, func: Function):
        self.func = func
        self.domtree: DominatorTree = dominator_tree(func)
        self.loops: List[Loop] = []
        self._loop_of_header: Dict[BasicBlock, Loop] = {}
        self._innermost: Dict[BasicBlock, Loop] = {}
        self._build()

    @classmethod
    def of(cls, func: Function) -> "LoopInfo":
        """The forest of ``func`` as its CFG is now: the memoized one while
        every block and its successor tuple are unchanged, a fresh one
        otherwise.  An edit that only moves or rewrites instructions (a
        hoist, a promotion) keeps the forest; one that adds, removes,
        reorders or retargets a block rebuilds it, so no pass has to
        announce its CFG edits.  The memo lives on the function and dies
        with it."""
        key = tuple((block, tuple(block.successors)) for block in func.blocks)
        memo = getattr(func, "_loop_info", None)
        if memo is not None and memo[0] == key:
            return memo[1]
        info = cls(func)
        func._loop_info = (key, info)
        return info

    def _build(self) -> None:
        preds_of = predecessor_map(self.func)
        # Find back edges (tail -> header where header dominates tail).
        for block in self.func.blocks:
            if not self.domtree.contains(block):
                continue
            for succ in block.successors:
                if self.domtree.dominates(succ, block):
                    loop = self._loop_of_header.get(succ)
                    if loop is None:
                        loop = Loop(succ)
                        self._loop_of_header[succ] = loop
                        self.loops.append(loop)
                    loop.latches.append(block)
                    self._collect_body(loop, block, preds_of)
        self._nest_loops()

    def _collect_body(self, loop: Loop, latch: BasicBlock, preds_of) -> None:
        stack = [latch]
        while stack:
            block = stack.pop()
            if block in loop.blocks:
                continue
            loop.blocks.add(block)
            stack.extend(preds_of[block])

    def _nest_loops(self) -> None:
        # Sort by size so each loop's parent is the smallest enclosing loop.
        by_size = sorted(self.loops, key=lambda l: len(l.blocks))
        for i, inner in enumerate(by_size):
            for outer in by_size[i + 1:]:
                if inner.header in outer.blocks and outer is not inner:
                    inner.parent = outer
                    outer.children.append(inner)
                    break
        for loop in by_size:  # innermost-first: don't overwrite
            for block in loop.blocks:
                if block not in self._innermost:
                    self._innermost[block] = loop

    # Queries -----------------------------------------------------------------

    @property
    def top_level(self) -> List[Loop]:
        return [loop for loop in self.loops if loop.parent is None]

    def loop_for_header(self, header: BasicBlock) -> Optional[Loop]:
        return self._loop_of_header.get(header)

    def innermost_loop(self, block: BasicBlock) -> Optional[Loop]:
        return self._innermost.get(block)
