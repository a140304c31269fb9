"""IR-layer diagnostic rules (codes ``IR0xx``).

These go beyond the structural verifier (:mod:`repro.ir.verifier`): the
verifier rejects IR that is *malformed*; these rules flag IR that is
well-formed but meaningless, dangerous, or unsupported by the accelerator
model — unreachable code, dead stores, reads of ``undef``, statically
out-of-bounds accesses, effect-free infinite loops, and recursion (the
wPST/offload model only supports non-recursive call trees, paper §III-B).
"""

from __future__ import annotations

from typing import Iterator, List, Set

from ..dataflow import Interval
from ..ir import (
    Alloca,
    ArrayType,
    BinaryOp,
    Call,
    Constant,
    GetElementPtr,
    GlobalVariable,
    Instruction,
    Load,
    Phi,
    Store,
    UndefValue,
)
from .core import Diagnostic, Location, Severity
from .registry import rule


def _loc(func, block=None, inst=None, detail=None) -> Location:
    return Location(
        function=func.name if func is not None else None,
        block=block.name if block is not None else None,
        instruction=inst.ref if inst is not None else None,
        detail=detail,
    )


@rule(
    "IR001",
    "unreachable-block",
    layer="ir",
    severity=Severity.WARNING,
    description="Basic block is unreachable from the function entry.",
    paper_ref="§III-B (regions are built over the reachable CFG)",
)
def check_unreachable_blocks(ctx) -> Iterator[Diagnostic]:
    for func in ctx.module.defined_functions():
        reachable: Set = set()
        stack = [func.entry]
        while stack:
            block = stack.pop()
            if block in reachable:
                continue
            reachable.add(block)
            stack.extend(block.successors)
        for block in func.blocks:
            if block not in reachable:
                yield Diagnostic(
                    code="IR001",
                    severity=Severity.WARNING,
                    location=_loc(func, block),
                    message="block is unreachable from the function entry",
                    suggestion="run simplify_cfg or delete the dead block",
                )


def _derived_pointers(base: Alloca) -> Set:
    """``base`` plus every GEP (transitively) derived from it."""
    derived = {base}
    worklist: List = [base]
    while worklist:
        value = worklist.pop()
        for user in value.users:
            if isinstance(user, GetElementPtr) and user.base in derived:
                if user not in derived:
                    derived.add(user)
                    worklist.append(user)
    return derived


@rule(
    "IR002",
    "dead-store",
    layer="ir",
    severity=Severity.WARNING,
    description=(
        "Store to a stack object that is never read (and whose address "
        "does not escape)."
    ),
    paper_ref="§III-C (dead memory traffic inflates interface estimates)",
)
def check_dead_stores(ctx) -> Iterator[Diagnostic]:
    for func in ctx.module.defined_functions():
        for block in func.blocks:
            for inst in block.instructions:
                if not isinstance(inst, Alloca):
                    continue
                derived = _derived_pointers(inst)
                stores: List[Store] = []
                has_load = False
                escaped = False
                for pointer in derived:
                    for user in pointer.users:
                        if isinstance(user, Load):
                            has_load = True
                        elif isinstance(user, Store):
                            if user.pointer is pointer and user.value is not pointer:
                                stores.append(user)
                            else:
                                escaped = True  # the address itself is stored
                        elif isinstance(user, GetElementPtr):
                            if user.base is not pointer:
                                escaped = True  # address used as an index
                        else:
                            # Calls, phis, selects, casts, compares: the
                            # address escapes this simple intra-procedural
                            # view; stay silent.
                            escaped = True
                if escaped or has_load or not stores:
                    continue
                for store in stores:
                    yield Diagnostic(
                        code="IR002",
                        severity=Severity.WARNING,
                        location=_loc(func, store.parent, store,
                                      detail=f"object %{inst.name}"),
                        message=(
                            f"value stored to %{inst.name} is never read"
                        ),
                        suggestion="delete the store or read the object",
                    )


@rule(
    "IR003",
    "undef-read",
    layer="ir",
    severity=Severity.WARNING,
    description="Instruction consumes an undef (uninitialized) value.",
    paper_ref="§III-C (undef operands make latency/area estimates arbitrary)",
)
def check_undef_reads(ctx) -> Iterator[Diagnostic]:
    for func in ctx.module.defined_functions():
        for block in func.blocks:
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    continue  # phis may legitimately merge undef on dead edges
                for operand in inst.operands:
                    if isinstance(operand, UndefValue):
                        yield Diagnostic(
                            code="IR003",
                            severity=Severity.WARNING,
                            location=_loc(func, block, inst),
                            message=f"{inst.opcode} reads an undef value",
                            suggestion="initialize the value on every path",
                        )
                        break


@rule(
    "IR004",
    "const-index-out-of-bounds",
    layer="ir",
    severity=Severity.ERROR,
    description=(
        "GEP with a constant index that is statically outside the bounds "
        "of the indexed array type."
    ),
    paper_ref="§III-B (footprint analysis assumes in-bounds accesses)",
)
def check_const_index_bounds(ctx) -> Iterator[Diagnostic]:
    for func in ctx.module.defined_functions():
        for block in func.blocks:
            for inst in block.instructions:
                if not isinstance(inst, GetElementPtr):
                    continue
                ty = inst.base.type.pointee
                for level, index in enumerate(inst.indices):
                    if level == 0:
                        # The first index strides over whole objects; it is
                        # only bounded when the base is a declared object
                        # (global or alloca), where any non-zero constant
                        # walks off the object.
                        if (
                            isinstance(inst.base, (GlobalVariable, Alloca))
                            and isinstance(index, Constant)
                            and index.value != 0
                        ):
                            yield Diagnostic(
                                code="IR004",
                                severity=Severity.ERROR,
                                location=_loc(func, block, inst),
                                message=(
                                    f"constant index {index.value} strides "
                                    f"past the object {inst.base.ref}"
                                ),
                                suggestion="index the object starting at 0",
                            )
                        continue
                    if not isinstance(ty, ArrayType):
                        break
                    if isinstance(index, Constant) and not (
                        0 <= index.value < ty.count
                    ):
                        yield Diagnostic(
                            code="IR004",
                            severity=Severity.ERROR,
                            location=_loc(func, block, inst),
                            message=(
                                f"constant index {index.value} is out of "
                                f"bounds for {ty} (valid: 0..{ty.count - 1})"
                            ),
                            suggestion="fix the index or grow the array",
                        )
                    ty = ty.element


@rule(
    "IR005",
    "infinite-loop-no-effects",
    layer="ir",
    severity=Severity.ERROR,
    description=(
        "Loop with no exit edge and no memory effects: the program cannot "
        "terminate or produce results from it."
    ),
    paper_ref="§III-B (profiling and trip-count analysis diverge)",
)
def check_infinite_loops(ctx) -> Iterator[Diagnostic]:
    for func in ctx.module.defined_functions():
        for loop in ctx.loop_info(func).loops:
            if loop.exit_edges():
                continue
            has_effects = any(
                isinstance(inst, (Store, Call))
                for block in loop.blocks
                for inst in block.instructions
            )
            if not has_effects:
                yield Diagnostic(
                    code="IR005",
                    severity=Severity.ERROR,
                    location=_loc(func, loop.header,
                                  detail=f"loop {loop.name}"),
                    message=(
                        f"loop {loop.name} never exits and has no memory "
                        "effects"
                    ),
                    suggestion="add an exit condition or delete the loop",
                )


@rule(
    "IR006",
    "recursive-call",
    layer="ir",
    severity=Severity.ERROR,
    description=(
        "Function participates in a recursion cycle; the wPST and the "
        "accelerator offload model only support non-recursive call trees."
    ),
    paper_ref="§III-B (the wPST nests per-function PSTs acyclically)",
)
def check_recursion(ctx) -> Iterator[Diagnostic]:
    callgraph = ctx.callgraph
    for func in ctx.module.defined_functions():
        if callgraph.is_recursive(func):
            yield Diagnostic(
                code="IR006",
                severity=Severity.ERROR,
                location=_loc(func, detail="call graph cycle"),
                message=f"function @{func.name} is (transitively) recursive",
                suggestion="rewrite the recursion as iteration",
            )


@rule(
    "IR007",
    "symbolic-out-of-bounds",
    layer="ir",
    severity=Severity.ERROR,
    description=(
        "Memory access whose interval-proven offset window lies entirely "
        "outside its root object: every execution is out of bounds.  "
        "Unlike IR004 this covers symbolic (non-constant) indices."
    ),
    paper_ref="§III-B (footprint analysis assumes in-bounds accesses)",
)
def check_symbolic_out_of_bounds(ctx) -> Iterator[Diagnostic]:
    for window in ctx.bounds.out_of_bounds():
        inst = window.inst
        func = inst.parent.parent
        root = getattr(window.root, "name", "?")
        yield Diagnostic(
            code="IR007",
            severity=Severity.ERROR,
            location=_loc(func, inst.parent, inst, detail=f"root @{root}"),
            message=(
                f"{inst.opcode} at byte offset {window.offset} "
                f"(access size {window.access_size}) is provably outside "
                f"@{root} (size {window.root_size})"
            ),
            suggestion="fix the index computation; no execution is in bounds",
        )


@rule(
    "IR008",
    "provable-overflow",
    layer="ir",
    severity=Severity.ERROR,
    description=(
        "Integer arithmetic whose mathematically exact result range lies "
        "entirely outside the result type (guaranteed wraparound), or a "
        "shift whose amount range is entirely outside 0..bits-1."
    ),
    paper_ref="§III-B (value ranges feed trip-count and footprint bounds)",
)
def check_provable_overflow(ctx) -> Iterator[Diagnostic]:
    for func in ctx.module.defined_functions():
        analysis = ctx.intervals.for_function(func)
        for block in func.blocks:
            for inst in block.instructions:
                if not (isinstance(inst, BinaryOp) and inst.type.is_int):
                    continue
                bits = inst.type.bits
                if inst.opcode in ("shl", "shr"):
                    amount = analysis.interval_at_use(inst.rhs, inst)
                    definitely_bad = (
                        (amount.hi is not None and amount.hi < 0)
                        or (amount.lo is not None and amount.lo >= bits)
                    )
                    if definitely_bad:
                        yield Diagnostic(
                            code="IR008",
                            severity=Severity.ERROR,
                            location=_loc(func, block, inst),
                            message=(
                                f"{inst.opcode} amount range {amount} is "
                                f"provably outside 0..{bits - 1}"
                            ),
                            suggestion="clamp or mask the shift amount",
                        )
                    continue
                if inst.opcode not in ("add", "sub", "mul"):
                    continue
                exact = analysis.exact_result(inst)
                if exact is None or exact.is_bottom:
                    continue
                ty = Interval.of_type(bits)
                wraps = (
                    (exact.lo is not None and exact.lo > ty.hi)
                    or (exact.hi is not None and exact.hi < ty.lo)
                )
                if wraps:
                    yield Diagnostic(
                        code="IR008",
                        severity=Severity.ERROR,
                        location=_loc(func, block, inst),
                        message=(
                            f"{inst.opcode} result range {exact} is provably "
                            f"outside the i{bits} range {ty}: every "
                            "execution wraps"
                        ),
                        suggestion="widen the type or restructure the math",
                    )


@rule(
    "IR009",
    "provable-truncation",
    layer="ir",
    severity=Severity.ERROR,
    description=(
        "Truncation that provably discards set bits: the source value has "
        "known-one bits at or above the destination width, and the "
        "truncated result still feeds an observable effect (a store, "
        "branch, call, return, or address).  Every execution loses those "
        "high bits — the narrow value cannot equal the wide one."
    ),
    paper_ref="§III-F (datapath widths must preserve observable values)",
)
def check_provable_truncation(ctx) -> Iterator[Diagnostic]:
    from ..ir import Cast

    for func in ctx.module.defined_functions():
        analysis = ctx.bitwidth.for_function(func)
        for block in func.blocks:
            for inst in block.instructions:
                if not (isinstance(inst, Cast) and inst.opcode == "trunc"):
                    continue
                src = inst.operands[0]
                if not src.type.is_int:
                    continue
                dst_bits = inst.type.bits
                lost_ones = analysis.known(src).ones >> dst_bits
                if lost_ones == 0:
                    continue
                if analysis.demanded(inst) == 0:
                    continue  # dead trunc: IR002-style, not a data loss
                yield Diagnostic(
                    code="IR009",
                    severity=Severity.ERROR,
                    location=_loc(func, block, inst),
                    message=(
                        f"trunc to i{dst_bits} provably discards set high "
                        f"bits of %{src.name or '?'} (known ones above bit "
                        f"{dst_bits - 1}); the demanded result cannot "
                        "match the full-width value"
                    ),
                    suggestion="widen the destination type or mask "
                               "explicitly before truncating",
                )
