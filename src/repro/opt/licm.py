"""Loop-invariant code motion for pure (non-memory) computations."""

from __future__ import annotations

from typing import Set

from ..analysis.loops import Loop, LoopInfo
from ..ir import (
    Argument,
    Constant,
    Function,
    GlobalVariable,
    Instruction,
    Module,
    Phi,
    UndefValue,
)


def _hoistable(inst: Instruction) -> bool:
    """Pure, rematerializable computations only.

    Memory operations stay put (promotion handles the profitable ones);
    division is excluded because hoisting may introduce a trap on a path
    that never executed it.
    """
    if inst.is_terminator or inst.has_side_effects:
        return False
    if isinstance(inst, Phi):
        return False
    if inst.is_memory_access:
        return False
    if inst.opcode in ("div", "rem", "fdiv", "fsqrt"):
        return False
    if inst.type.is_void:
        return False
    return True


def _operands_invariant(inst: Instruction, loop: Loop, hoisted: Set) -> bool:
    for operand in inst.operands:
        if isinstance(operand, (Constant, Argument, GlobalVariable, UndefValue)):
            continue
        if isinstance(operand, Instruction):
            if operand in hoisted:
                continue
            if operand.parent in loop.blocks:
                return False
            continue
        if isinstance(operand, Function):
            continue
        return False
    return True


def hoist_invariants(func: Function) -> int:
    """Hoist loop-invariant instructions to preheaders, innermost-last so
    code migrates as far out as it legally can.  Returns hoist count."""
    total = 0
    changed = True
    while changed:
        changed = False
        info = LoopInfo.of(func)
        # Outermost-first: anything hoisted out of an inner loop can then
        # leave the outer loop on the next fixed-point round.
        for loop in sorted(info.loops, key=lambda l: l.depth):
            preheader = loop.preheader()
            if preheader is None:
                continue
            hoisted: Set[Instruction] = set()
            # Iterate in function layout order, not set order: the order in
            # which invariants land in the preheader must be deterministic
            # across processes (the bench cache keys on the printed IR).
            for block in [b for b in func.blocks if b in loop.blocks]:
                for inst in list(block.instructions):
                    if not _hoistable(inst):
                        continue
                    if not _operands_invariant(inst, loop, hoisted):
                        continue
                    block.instructions.remove(inst)
                    inst.parent = None
                    preheader.insert_before_terminator(inst)
                    hoisted.add(inst)
                    total += 1
                    changed = True
    return total


def hoist_invariants_module(module: Module) -> int:
    return sum(hoist_invariants(f) for f in module.defined_functions())
