"""Control-flow-graph utilities over IR functions."""

from __future__ import annotations

from typing import List, Set, Tuple

from ..ir import BasicBlock, Function


#: Every block's predecessors (function order, each once), in one pass.
predecessor_map = Function.predecessor_map
#: Blocks reachable from the entry, in reverse post-order.
reverse_postorder = Function.reverse_postorder


def reachable_blocks(func: Function) -> Set[BasicBlock]:
    """Blocks reachable from the entry block."""
    seen: Set[BasicBlock] = set()
    stack = [func.entry]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        stack.extend(block.successors)
    return seen


def edges(func: Function) -> List[Tuple[BasicBlock, BasicBlock]]:
    """All CFG edges as (source, target) pairs."""
    result = []
    for block in func.blocks:
        for succ in block.successors:
            result.append((block, succ))
    return result


def exit_blocks(func: Function) -> List[BasicBlock]:
    """Blocks that leave the function (end in a return)."""
    return [block for block in func.blocks if not block.successors]


def is_single_exit(func: Function) -> bool:
    return len(exit_blocks(func)) == 1
