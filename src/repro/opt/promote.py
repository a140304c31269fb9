"""Accumulator promotion: register-promote loop-invariant load/store pairs.

This reproduces the decisive part of ``-O3`` for the paper's kernels: a
pattern like::

    for (j = 0; j < M; j++)
        z[i] += A[i][j] * B[i][j];

keeps ``z[i]`` in a register across the loop (one load before, one store
after) instead of a load+store per iteration.  This both speeds up the CPU
profile and — more importantly for Cayman — turns the memory recurrence into
an SSA recurrence through a header phi, which is what lets the pipeline
model bound II by the floating-point adder latency instead of a memory
round trip.

Legality requirements (checked conservatively):

* the loop has a unique preheader, a single latch, and a single exit edge
  whose target has no other predecessors;
* the candidate address is loop-invariant and analyzable (SCEV);
* exactly one load and one store to that address inside the loop, the load
  preceding the store, both executing on every iteration (their blocks
  dominate the latch);
* every *other* access in the loop to the same base object provably touches
  a different address (constant non-zero delta with stride 0).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..analysis.access_patterns import AccessInfo, AccessPatternAnalysis
from ..analysis.loops import Loop
from ..analysis.scalar_evolution import SCEVConstant, scev_sub
from ..ir import (
    Argument,
    BasicBlock,
    Constant,
    Function,
    GetElementPtr,
    GlobalVariable,
    Instruction,
    Load,
    Module,
    Phi,
    Store,
    Value,
)


def promote_accumulators(func: Function) -> int:
    """Promote all legal accumulator patterns in ``func``.

    Returns the number of promoted load/store pairs.  Re-runs the analyses
    after each change, so nested accumulators promote inside-out.
    """
    promoted = 0
    while True:
        if _promote_one(func):
            promoted += 1
        else:
            return promoted


def promote_accumulators_module(module: Module) -> int:
    total = 0
    for func in module.defined_functions():
        total += promote_accumulators(func)
    return total


def _promote_one(func: Function) -> bool:
    access = AccessPatternAnalysis(func)
    loop_info = access.loop_info
    domtree = loop_info.domtree
    # Innermost-first so inner promotions enable nothing illegal outside.
    for loop in sorted(loop_info.loops, key=lambda l: -l.depth):
        candidate = _find_candidate(loop, access, domtree)
        if candidate is None:
            continue
        _apply(func, loop, *candidate)
        return True
    return False


def _find_candidate(
    loop: Loop, access: AccessPatternAnalysis, domtree
) -> Optional[Tuple[Load, Store]]:
    preheader = loop.preheader()
    if preheader is None or len(loop.latches) != 1:
        return None
    exits = loop.exit_edges()
    if len(exits) != 1:
        return None
    exit_src, exit_dst = exits[0]
    if len(exit_dst.predecessors) != 1:
        return None

    latch = loop.latches[0]
    accesses: List[AccessInfo] = [
        access.info(inst)
        for block in loop.blocks
        for inst in block.instructions
        if isinstance(inst, (Load, Store))
    ]

    # Group loop-invariant accesses by (base, offset SCEV).
    for info in accesses:
        if not info.is_load:
            continue
        if info.base is None or info.stride_in(loop) != 0:
            continue
        load: Load = info.inst  # type: ignore[assignment]
        partner: Optional[Store] = None
        legal = True
        for other in accesses:
            if other.inst is load:
                continue
            if other.base is not info.base:
                continue
            delta = scev_sub(other.offset, info.offset)
            same_address = isinstance(delta, SCEVConstant) and delta.value == 0
            if same_address and other.is_store:
                if partner is not None:
                    legal = False  # more than one store to the address
                    break
                partner = other.inst  # type: ignore[assignment]
                if other.stride_in(loop) != 0:
                    legal = False
                    break
            elif same_address:
                legal = False  # second load to the same address: keep simple
                break
            else:
                # Different access to the same base: require a provably
                # disjoint constant offset at matching stride.
                if not (
                    isinstance(delta, SCEVConstant)
                    and delta.value != 0
                    and other.stride_in(loop) == 0
                ):
                    legal = False
                    break
        if not legal or partner is None:
            continue
        if not _order_and_dominance_ok(load, partner, loop, domtree):
            continue
        if not _operands_hoistable(load.pointer, preheader, domtree):
            continue
        if any(
            isinstance(user, Instruction)
            and user.parent is not None
            and user.parent not in loop.blocks
            for user in load.users
        ):
            continue
        return load, partner
    return None


def _order_and_dominance_ok(load: Load, store: Store, loop: Loop, domtree) -> bool:
    latch = loop.latches[0]
    for inst in (load, store):
        if not domtree.dominates(inst.parent, latch):
            return False  # conditional execution: not every iteration
    if load.parent is store.parent:
        block = load.parent.instructions
        return block.index(load) < block.index(store)
    return domtree.dominates(load.parent, store.parent)


def _operands_hoistable(pointer: Value, preheader: BasicBlock, domtree) -> bool:
    """Can the address computation move to the preheader?"""
    if isinstance(pointer, (GlobalVariable, Argument)):
        return True
    if isinstance(pointer, GetElementPtr):
        for operand in pointer.operands:
            if isinstance(operand, (Constant, GlobalVariable, Argument)):
                continue
            if isinstance(operand, Instruction):
                if operand.parent is None:
                    return False
                if not domtree.dominates(operand.parent, preheader):
                    return False
            else:
                return False
        return True
    if isinstance(pointer, Instruction):
        return domtree.dominates(pointer.parent, preheader)
    return False


def _apply(func: Function, loop: Loop, load: Load, store: Store) -> None:
    preheader = loop.preheader()
    latch = loop.latches[0]
    (exit_src, exit_dst), = loop.exit_edges()

    # 1. Hoist (a copy of) the address computation into the preheader.
    pointer = load.pointer
    if isinstance(pointer, GetElementPtr) and pointer.parent in loop.blocks:
        hoisted = GetElementPtr(pointer.base, list(pointer.indices), pointer.name)
        preheader.insert_before_terminator(hoisted)
        address: Value = hoisted
    else:
        address = pointer

    # 2. Initial load in the preheader.
    initial = Load(address, f"{load.name}.pre")
    preheader.insert_before_terminator(initial)

    # 3. Accumulator phi in the header.
    acc = Phi(load.type, f"{load.name}.acc")
    loop.header.insert_front(acc)
    stored_value = store.value
    for pred in loop.header.predecessors:
        if pred in loop.blocks:
            acc.add_incoming(stored_value, pred)
        else:
            acc.add_incoming(initial, pred)

    # 4. Redirect the load's users to the phi, then drop load and store.
    load.replace_all_uses_with(acc)
    load.erase()
    store.erase()

    # 5. Store the final accumulator value after the loop.
    final_store = Store(acc, address)
    exit_dst.insert_front(final_store)
