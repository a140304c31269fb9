"""Dominator and post-dominator trees (Cooper–Harvey–Kennedy algorithm)."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..ir import BasicBlock, Function
from .cfg import exit_blocks, predecessor_map, reverse_postorder


class _VirtualExit:
    """Sentinel sink block unifying all returns for post-dominance."""

    def __init__(self, func: Function):
        self.func = func
        self.name = "<virtual-exit>"

    @property
    def successors(self):
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualExit of {self.func.name}>"


class DominatorTree:
    """Immediate-dominator tree over the blocks of one function.

    ``direction`` is "dom" for the forward dominator tree or "postdom" for the
    post-dominator tree (computed on the reversed CFG with a virtual exit when
    the function has several returns).
    """

    def __init__(self, func: Function, direction: str = "dom"):
        if direction not in ("dom", "postdom"):
            raise ValueError(f"invalid direction {direction!r}")
        self.func = func
        self.direction = direction
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._order_index: Dict[BasicBlock, int] = {}
        self.roots: List[BasicBlock] = []
        self._compute()
        self._children: Dict[BasicBlock, List[BasicBlock]] = {}
        for block, parent in self.idom.items():
            if parent is not None:
                self._children.setdefault(parent, []).append(block)

    # Construction ----------------------------------------------------------------

    def _compute(self) -> None:
        virtual_root = None
        if self.direction == "dom":
            order = reverse_postorder(self.func)
            roots = [self.func.entry]
            preds_of = predecessor_map(self.func)
            get_preds: Callable = lambda b: preds_of[b]
        else:
            # Functions with several returns get a *virtual exit* root so
            # the Cooper-Harvey-Kennedy intersection always converges (a
            # true multi-root forest would loop on cross-tree intersects).
            virtual_root = _VirtualExit(self.func)
            exits = exit_blocks(self.func)
            order = [virtual_root] + self._reverse_cfg_rpo()
            roots = [virtual_root]
            exit_set = set(exits)
            get_preds = lambda b: (
                list(b.successors) + ([virtual_root] if b in exit_set else [])
            )

        self.roots = roots
        self._order_index = {block: i for i, block in enumerate(order)}
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {b: None for b in order}
        for root in roots:
            idom[root] = root

        changed = True
        while changed:
            changed = False
            for block in order:
                if block in roots:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in get_preds(block):
                    if pred not in idom or idom[pred] is None:
                        continue
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(idom, new_idom, pred)
                if new_idom is not None and idom[block] is not new_idom:
                    idom[block] = new_idom
                    changed = True

        # Roots (and children of the virtual exit) have no exported parent.
        self.idom = {}
        for block, parent in idom.items():
            if isinstance(block, _VirtualExit):
                continue
            if parent is None:
                continue
            if block in roots or isinstance(parent, _VirtualExit):
                self.idom[block] = None
            else:
                self.idom[block] = parent
        if virtual_root is not None:
            self.roots = [
                block for block, parent in self.idom.items() if parent is None
            ]

    def _reverse_cfg_rpo(self) -> List[BasicBlock]:
        """Reverse post-order of the reversed CFG, seeded from all exits."""
        preds_of = predecessor_map(self.func)
        visited = set()
        postorder: List[BasicBlock] = []

        def visit(start: BasicBlock) -> None:
            stack = [(start, 0)]
            visited.add(start)
            while stack:
                current, index = stack.pop()
                nxt = preds_of[current]
                if index < len(nxt):
                    stack.append((current, index + 1))
                    node = nxt[index]
                    if node not in visited:
                        visited.add(node)
                        stack.append((node, 0))
                else:
                    postorder.append(current)

        for block in exit_blocks(self.func):
            if block not in visited:
                visit(block)
        return list(reversed(postorder))

    def _intersect(
        self, idom: Dict[BasicBlock, Optional[BasicBlock]],
        a: BasicBlock, b: BasicBlock,
    ) -> BasicBlock:
        index = self._order_index
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    # Queries ----------------------------------------------------------------------

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` (post)dominates ``b`` (reflexive)."""
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            node = self.idom.get(node)
        return False

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return self._children.get(block, [])

    def depth(self, block: BasicBlock) -> int:
        depth = 0
        node = self.idom.get(block)
        while node is not None:
            depth += 1
            node = self.idom.get(node)
        return depth

    def contains(self, block: BasicBlock) -> bool:
        return block in self.idom


def dominator_tree(func: Function) -> DominatorTree:
    """Forward dominator tree of ``func``."""
    return DominatorTree(func, "dom")


def postdominator_tree(func: Function) -> DominatorTree:
    """Post-dominator tree of ``func``."""
    return DominatorTree(func, "postdom")
