"""Structural verifier for the repro IR.

Checks the invariants the rest of the system depends on:

* every reachable block ends with exactly one terminator;
* phis sit at the top of their block and list each of the block's
  predecessors exactly once;
* every instruction operand is defined before use (dominance for SSA values);
* def-use chains are consistent;
* call signatures match.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..telemetry import current as current_telemetry
from .function import BasicBlock, Function
from .instructions import Call, Instruction, Phi
from .module import Module
from .values import Argument, Constant, GlobalVariable, UndefValue


class VerificationError(Exception):
    """Raised when a module violates an IR invariant."""


def verify_module(module: Module) -> None:
    """Verify every defined function in ``module``; raise on the first error.

    Runs inside an ``ir.verify`` telemetry span whose ``functions``
    attribute counts the defined functions."""
    functions = list(module.defined_functions())
    with current_telemetry().span("ir.verify", functions=len(functions)):
        for func in functions:
            verify_function(func)


def verify_function(func: Function) -> None:
    """Verify structural and SSA invariants of one function."""
    if not func.blocks:
        raise VerificationError(f"{func.name}: function has no blocks")

    block_set = set(func.blocks)
    preds = func.predecessor_map()
    for block in func.blocks:
        _verify_block_structure(func, block, block_set, preds[block])

    _verify_ssa_dominance(func, preds)
    _verify_use_chains(func)


def _verify_block_structure(
    func: Function,
    block: BasicBlock,
    block_set: Set[BasicBlock],
    block_preds: List[BasicBlock],
) -> None:
    if block.parent is not func:
        raise VerificationError(f"{func.name}/{block.name}: wrong parent")
    if not block.instructions:
        raise VerificationError(f"{func.name}/{block.name}: block is empty")
    if not block.is_terminated:
        raise VerificationError(f"{func.name}/{block.name}: missing terminator")
    for inst in block.instructions[:-1]:
        if inst.is_terminator:
            raise VerificationError(
                f"{func.name}/{block.name}: terminator {inst.opcode} "
                "in the middle of a block"
            )
    for succ in block.successors:
        if succ not in block_set:
            raise VerificationError(
                f"{func.name}/{block.name}: successor {succ.name} not in function"
            )

    seen_non_phi = False
    preds = set(block_preds)
    for inst in block.instructions:
        if inst.parent is not block:
            raise VerificationError(
                f"{func.name}/{block.name}: instruction parent link broken"
            )
        if isinstance(inst, Phi):
            if seen_non_phi:
                raise VerificationError(
                    f"{func.name}/{block.name}: phi {inst.ref} after non-phi"
                )
            incoming = set(inst.incoming_blocks)
            if incoming != preds:
                raise VerificationError(
                    f"{func.name}/{block.name}: phi {inst.ref} incoming blocks "
                    f"{sorted(b.name for b in incoming)} != predecessors "
                    f"{sorted(b.name for b in preds)}"
                )
            if len(inst.incoming_blocks) != len(incoming):
                repeated = sorted(
                    b.name for b in incoming
                    if inst.incoming_blocks.count(b) > 1
                )
                raise VerificationError(
                    f"{func.name}/{block.name}: phi {inst.ref} lists incoming "
                    f"blocks {repeated} more than once"
                )
        else:
            seen_non_phi = True
        if isinstance(inst, Call):
            if inst.callee.parent is not None:
                if func.parent is not None and inst.callee.parent is not func.parent:
                    raise VerificationError(
                        f"{func.name}: call to {inst.callee.name} from another module"
                    )
            expected = inst.callee.type.param_types
            if len(inst.operands) != len(expected):
                raise VerificationError(
                    f"{func.name}/{block.name}: call to {inst.callee.name} "
                    f"passes {len(inst.operands)} args, expected {len(expected)}"
                )
            for i, (arg, ty) in enumerate(zip(inst.operands, expected)):
                if arg.type != ty:
                    raise VerificationError(
                        f"{func.name}/{block.name}: call to {inst.callee.name} "
                        f"arg {i} has type {arg.type}, expected {ty}"
                    )


def _verify_ssa_dominance(
    func: Function, preds: Dict[BasicBlock, List[BasicBlock]]
) -> None:
    """Check defs dominate uses, with dominator sets local to the verifier
    (the analysis package depends on ``ir``, so it is not imported here).

    Each block's set is a bit mask over the function's blocks.  Starting
    from every block (⊤), sweeps in reverse post-order from the entry,
    then the unreachable blocks in function order, apply
    ``dom(b) = {b} ∪ ⋂ dom(p)`` over ``b``'s predecessors until nothing
    changes: the maximal fixpoint, so a block without predecessors is
    dominated by itself alone and one reached only from itself by every
    block.  A sweep costs O(blocks + edges) mask operations; a reducible
    CFG settles in two or three sweeps.
    """
    entry = func.entry
    bit = {block: 1 << i for i, block in enumerate(func.blocks)}
    top = (1 << len(func.blocks)) - 1
    dom = dict.fromkeys(func.blocks, top)
    dom[entry] = bit[entry]

    order = func.reverse_postorder()
    reached = set(order)
    order.extend(b for b in func.blocks if b not in reached)
    sweep = [
        (block, bit[block], preds[block]) for block in order if block is not entry
    ]
    changed = True
    while changed:
        changed = False
        for block, own, block_preds in sweep:
            new = top if block_preds else 0
            for pred in block_preds:
                new &= dom[pred]
            new |= own
            if new != dom[block]:
                dom[block] = new
                changed = True

    defined_in: dict = {}
    for block in func.blocks:
        for pos, inst in enumerate(block.instructions):
            defined_in[inst] = (block, pos)

    for block in func.blocks:
        for pos, inst in enumerate(block.instructions):
            if isinstance(inst, Phi):
                # Phi operands must be available at the end of the incoming block.
                for value, pred in inst.incoming():
                    _check_available(
                        func, value, pred, len(pred.instructions), dom, bit,
                        defined_in,
                    )
                continue
            for value in inst.operands:
                _check_available(func, value, block, pos, dom, bit, defined_in)


def _check_available(func, value, block, pos, dom, bit, defined_in) -> None:
    if isinstance(value, GlobalVariable):
        module = func.parent
        if module is not None and module.globals.get(value.name) is not value:
            raise VerificationError(
                f"{func.name}: operand @{value.name} does not resolve to the "
                "module's symbol table"
            )
        return
    if isinstance(value, (Constant, Argument, UndefValue, Function)):
        return
    if not isinstance(value, Instruction):
        raise VerificationError(f"{func.name}: unknown operand kind {value!r}")
    if value not in defined_in:
        raise VerificationError(
            f"{func.name}: use of instruction {value.ref} not present in function"
        )
    def_block, def_pos = defined_in[value]
    if def_block is block:
        if def_pos >= pos:
            raise VerificationError(
                f"{func.name}/{block.name}: {value.ref} used before definition"
            )
    elif not dom[block] & bit[def_block]:
        raise VerificationError(
            f"{func.name}/{block.name}: definition of {value.ref} "
            f"({def_block.name}) does not dominate use"
        )


def _verify_use_chains(func: Function) -> None:
    for block in func.blocks:
        for inst in block.instructions:
            for op in inst.operands:
                if inst not in op.users:
                    raise VerificationError(
                        f"{func.name}: {inst.opcode} missing from users of {op.ref}"
                    )
            for user in inst.users:
                if inst not in user.operands:
                    raise VerificationError(
                        f"{func.name}: stale user entry {user.opcode} on {inst.ref}"
                    )
