"""Compile-once execution engine: IR functions as specialized Python code.

The reference interpreter (``interpreter.py``) re-decides everything per
executed instruction: an isinstance dispatch chain, a dict lookup per
operand, a cost-table lookup per cycle charge, and a bounds-elision branch
per memory access.  This module removes all of that by translating each IR
function *once* into specialized Python code:

* **one function per basic block**, direct-threaded — each block function
  returns the next block's function (or ``None`` on return), so the driver
  loop is just ``while fn is not None: fn = fn(S, X)``;
* **operand fetch specialization** — ``Constant``/``GlobalVariable``/
  ``UndefValue`` operands are resolved to literals at compile time, and SSA
  values live in a flat slot list ``S`` indexed by compile-time-assigned
  integers (no per-operand dict hashing);
* **elision verdict baked in** — each Load/Store compiles to either the
  checked or the unchecked access sequence, chosen once per elision mode
  (one ``CompiledProgram`` per mode, cached on the interpreter);
* **phi nodes as edge-specific copies** — every jump site writes exactly
  the phi slots of its target, two-phase so parallel-copy semantics hold;
* **cycle costs pre-summed per block** — the CPU cost model charge for a
  block is a compile-time float constant added once per execution.

The engine is **bit-identical** to the reference interpreter on every
successful run: results, memory image, ``cycles``, ``instructions``,
elided/checked access counts, and all ``ProfileCounters``.  The one
documented divergence is *error timing*: the instruction-limit check and
counter updates happen per block instead of per instruction, so a run that
faults mid-block may report slightly different counter values than the
reference (never a different result or a missed error).

Subclass instrumentation is source, not callbacks:
``Interpreter._compile_result``, ``_compile_access`` and ``_compile_edge``
return lines that ``NarrowingInterpreter`` and ``SanitizingInterpreter``
splice in after each result, before each Load/Store and on each jump (and
at function entry), the program points where the reference engine's
``_execute`` and ``_on_block_transition`` overrides run.  A plain
``Interpreter`` returns none, so uninstrumented runs pay nothing.
``_compile_tally`` counts per-execution events as one pre-summed constant
per block.  Each function's source is compiled on its own, which bounds the
compiler's transient memory by the largest function, not the module.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Optional, Tuple

from ..ir import (
    Alloca,
    ArrayType,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    Constant,
    FCmp,
    FloatType,
    Function,
    GetElementPtr,
    GlobalVariable,
    ICmp,
    IntType,
    Load,
    Phi,
    PointerType,
    Return,
    Select,
    Store,
    UnaryOp,
    UndefValue,
    resource_class,
    sizeof,
)
from .cpu_model import instruction_cycles
from .interpreter import (
    ExecutionLimitExceeded,
    InterpreterError,
    _c_div,
    _c_rem,
)
from .memory import MemoryError_

_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")

_ICMP_OP = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_FCMP_OP = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}


def _f32(value: float) -> float:
    """Round a float to storable float32 precision (same as the reference)."""
    return _F32.unpack(_F32.pack(value))[0]


def _wrap_expr(expr: str, bits: int) -> str:
    """Source for two's-complement wrap of ``expr``; mirrors ``_wrap_int``."""
    if bits <= 1:
        return f"(({expr}) & 1)"
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    return f"(((({expr}) & {mask}) ^ {sign}) - {sign})"


class CompiledProgram:
    """All defined functions of a module compiled for one elision mode.

    Instances are created lazily by :meth:`Interpreter._program` and cached
    per ``elide`` flag; ``invoke`` runs one top-level call and flushes the
    hot counter cells back into the owning interpreter's attributes.
    """

    def __init__(self, interp, elide: bool):
        self.interp = interp
        self.elide = elide
        self.profile = interp.profile
        # Hot counter cells shared by all generated code: cycles,
        # instructions, (elided, checked) accesses, (budget, limit).
        self._cy = [0.0]
        self._ic = [0]
        self._ac = [0, 0]
        self._mx = [0, 0]
        self._bound: Dict[int, str] = {}
        memory = interp.memory
        self.ns: Dict = {
            "InterpreterError": InterpreterError,
            "ExecutionLimitExceeded": ExecutionLimitExceeded,
            "MemoryError_": MemoryError_,
            "_c_div": _c_div,
            "_c_rem": _c_rem,
            "_sqrt": math.sqrt,
            "_f32": _f32,
            "_PK4": _F32.pack,
            "_UPK4": _F32.unpack,
            "_UPF4": _F32.unpack_from,
            "_PKI4": _F32.pack_into,
            "_UPF8": _F64.unpack_from,
            "_PKI8": _F64.pack_into,
            "_ifb": int.from_bytes,
            # ``data`` is mutated in place and never reassigned, so it is
            # safe to capture once at compile time.
            "D": memory.data,
            "ALLOC": memory.allocate,
            "T": interp._tally,
            "CY": self._cy,
            "IC": self._ic,
            "AC": self._ac,
            "MX": self._mx,
        }
        self._mem_size = memory.size
        self._func_index: Dict[Function, int] = {}
        #: per function: (blocks, PB, PBI, PBC) for profile flushing
        self._block_flush: List[Tuple] = []
        #: per function: (edges, PE)
        self._edge_flush: List[Tuple] = []
        #: per function: (func, PF)
        self._entry_flush: List[Tuple] = []

        defined = list(interp.module.defined_functions())
        for fi, func in enumerate(defined):
            self._func_index[func] = fi
        name = getattr(interp.module, "name", "module")
        chunks: List[str] = []
        for fi, func in enumerate(defined):
            lines: List[str] = []
            _FunctionCompiler(self, fi, func).emit(lines)
            chunks.append("\n".join(lines))
            code = compile(
                chunks[-1], f"<repro-compiled:{name}:elide={elide}>", "exec"
            )
            exec(code, self.ns)
        self._invokers = {func: self.ns[f"_f{fi}"] for func, fi in self._func_index.items()}
        self.source = "\n".join(chunks)  # kept for debugging / docs examples

    # Namespace plumbing -------------------------------------------------------

    def bind(self, obj, prefix: str) -> str:
        """Bind a Python object into the generated code's namespace; an
        object bound again keeps its first name."""
        name = self._bound.get(id(obj))
        if name is None:
            name = f"{prefix}{len(self._bound) + 1}"
            self._bound[id(obj)] = name
            self.ns[name] = obj
        return name

    # Execution ----------------------------------------------------------------

    def invoke(self, func: Function, args: List):
        """Run one top-level call of ``func`` and sync counters back."""
        fn = self._invokers.get(func)
        if fn is None:  # pragma: no cover - call_function rejects declarations
            raise InterpreterError(f"call to undefined function {func.name}")
        interp = self.interp
        self._mx[0] = interp.max_instructions - interp.instructions
        self._mx[1] = interp.max_instructions
        try:
            return fn(*args)
        finally:
            self._flush()

    def _flush(self) -> None:
        interp = self.interp
        interp.cycles += self._cy[0]
        self._cy[0] = 0.0
        interp.instructions += self._ic[0]
        self._ic[0] = 0
        interp.elided_accesses += self._ac[0]
        interp.checked_accesses += self._ac[1]
        self._ac[0] = self._ac[1] = 0
        if not self.profile:
            return
        counters = interp.counters
        block_count = counters.block_count
        block_insts = counters.block_instructions
        block_cycles = counters.block_cycles
        for blocks, pb, pbi, pbc in self._block_flush:
            for i, n in enumerate(pb):
                if n:
                    block = blocks[i]
                    block_count[block] = block_count.get(block, 0) + n
                    block_insts[block] = block_insts.get(block, 0) + pbi[i]
                    block_cycles[block] = block_cycles.get(block, 0.0) + pbc[i]
                    pb[i] = 0
                    pbi[i] = 0
                    pbc[i] = 0.0
        edge_count = counters.edge_count
        for edges, pe in self._edge_flush:
            for i, n in enumerate(pe):
                if n:
                    edge_count[edges[i]] = edge_count.get(edges[i], 0) + n
                    pe[i] = 0
        entries = counters.func_entry_count
        for func, pf in self._entry_flush:
            if pf[0]:
                entries[func] = entries.get(func, 0) + pf[0]
                pf[0] = 0


class _FunctionCompiler:
    """Translates one IR function into source appended to the program."""

    def __init__(self, program: CompiledProgram, fi: int, func: Function):
        self.program = program
        self.interp = program.interp
        self.fi = fi
        self.func = func
        self.elide = program.elide
        self.profile = program.profile
        self._mem_size = program._mem_size
        self._tmp = 0
        # Slot allocation: arguments first, then every non-void instruction.
        self.slot: Dict = {}
        for arg in func.arguments:
            self.slot[arg] = len(self.slot)
        for inst in func.instructions():
            if not inst.type.is_void:
                self.slot[inst] = len(self.slot)
        self.block_index = {block: bi for bi, block in enumerate(func.blocks)}
        self.edges: List[Tuple] = []
        if self.profile:
            nblocks = len(func.blocks)
            ns = program.ns
            ns[f"PB{fi}"] = [0] * nblocks
            ns[f"PBI{fi}"] = [0] * nblocks
            ns[f"PBC{fi}"] = [0.0] * nblocks
            ns[f"PF{fi}"] = [0]
            program._block_flush.append(
                (list(func.blocks), ns[f"PB{fi}"], ns[f"PBI{fi}"], ns[f"PBC{fi}"])
            )
            program._entry_flush.append((func, ns[f"PF{fi}"]))

    # Helpers ------------------------------------------------------------------

    def temp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def expr(self, value) -> str:
        """Source expression for an operand — the compile-time-specialized
        equivalent of the reference engine's ``_value``."""
        if isinstance(value, Constant):
            v = value.value
            if isinstance(v, float):
                # Bind floats as objects: repr round-trips but inf/nan don't.
                return self.program.bind(v, "K")
            return repr(v)
        if isinstance(value, GlobalVariable):
            return repr(self.interp.global_addresses[value])
        if isinstance(value, UndefValue):
            return "0"
        return f"S[{self.slot[value]}]"

    def dst(self, inst) -> Optional[str]:
        index = self.slot.get(inst)
        return None if index is None else f"S[{index}]"

    def edge_index(self, block, target) -> int:
        self.edges.append((block, target))
        return len(self.edges) - 1

    # Emission -----------------------------------------------------------------

    def emit(self, lines: List[str]) -> None:
        fi = self.fi
        func = self.func
        for bi, block in enumerate(func.blocks):
            self.emit_block(lines, bi, block)
        if self.profile and self.edges:
            ns = self.program.ns
            ns[f"PE{fi}"] = [0] * len(self.edges)
            self.program._edge_flush.append((list(self.edges), ns[f"PE{fi}"]))
        # Invoker: exact arity, fresh slot list, direct-threaded driver.
        params = ", ".join(f"_a{i}" for i in range(len(func.arguments)))
        lines.append(f"def _f{fi}({params}):")
        lines.append(f"    S = [0] * {len(self.slot)}")
        for i in range(len(func.arguments)):
            lines.append(f"    S[{i}] = _a{i}")
        lines.append("    X = [None]")
        if self.profile:
            lines.append(f"    PF{fi}[0] += 1")
        entry_edge = self.interp._compile_edge(None, func.entry, self.program.bind)
        lines.extend("    " + line for line in entry_edge)
        entry_bi = self.block_index[func.entry]
        lines.append(f"    fn = _f{fi}_b{entry_bi}")
        lines.append("    while fn is not None:")
        lines.append("        fn = fn(S, X)")
        lines.append("    return X[0]")
        lines.append("")

    def emit_block(self, lines: List[str], bi: int, block) -> None:
        fi = self.fi
        body: List[str] = []
        instructions = block.instructions
        # Leading phis are written by predecessors' jump sites; everything
        # from the first non-phi on executes here.
        index = 0
        while index < len(instructions) and isinstance(instructions[index], Phi):
            index += 1
        tail = instructions[index:]
        n_insts = len(tail)
        has_call = any(isinstance(inst, Call) for inst in tail)
        cycle_sum = sum(
            instruction_cycles(resource_class(inst)) for inst in tail
        )

        if self.profile:
            body.append(f"PB{fi}[{bi}] += 1")
            if n_insts:
                body.append(f"PBI{fi}[{bi}] += {n_insts}")
        if not instructions:
            body.append(
                f"raise InterpreterError({f'block {block.name} is empty'!r})"
            )
            self._write(lines, fi, bi, body)
            return
        if n_insts:
            body.append(f"IC[0] += {n_insts}")
            body.append(
                "if IC[0] > MX[0]: raise ExecutionLimitExceeded("
                '"exceeded %d instructions" % MX[1])'
            )
        self._emit_tally(body, tail)
        if self.profile and has_call:
            body.append("_cyin = CY[0]")
        if cycle_sum:
            body.append(f"CY[0] += {cycle_sum!r}")

        terminated = False
        for inst in tail:
            if isinstance(inst, Branch):
                self._emit_goto(body, bi, block, inst.target, has_call)
                terminated = True
                break
            if isinstance(inst, CondBranch):
                body.append(f"if {self.expr(inst.condition)}:")
                true_exit: List[str] = []
                self._emit_goto(true_exit, bi, block, inst.true_target, has_call)
                body.extend("    " + line for line in true_exit)
                body.append("else:")
                false_exit: List[str] = []
                self._emit_goto(false_exit, bi, block, inst.false_target, has_call)
                body.extend("    " + line for line in false_exit)
                terminated = True
                break
            if isinstance(inst, Return):
                value = "None" if inst.value is None else self.expr(inst.value)
                body.append(f"X[0] = {value}")
                self._emit_block_cycles(body, bi, has_call)
                body.append("return None")
                terminated = True
                break
            self.emit_inst(body, inst)
        if not terminated:
            self._emit_block_cycles(body, bi, has_call)
            body.append(
                f"raise InterpreterError({f'block {block.name} fell through'!r})"
            )
        self._write(lines, fi, bi, body)

    def _emit_tally(self, body: List[str], tail) -> None:
        """Add the block's pre-summed ``_compile_tally`` increments."""
        if self.interp._tally is None:
            return
        sums = [0] * len(self.interp._tally)
        for inst in tail:
            for cell, n in enumerate(self.interp._compile_tally(inst)):
                sums[cell] += n
        for cell, n in enumerate(sums):
            if n:
                body.append(f"T[{cell}] += {n}")

    def _write(self, lines: List[str], fi: int, bi: int, body: List[str]) -> None:
        lines.append(f"def _f{fi}_b{bi}(S, X):")
        for line in body:
            lines.append("    " + line)
        lines.append("")

    def _emit_block_cycles(self, body: List[str], bi: int, has_call: bool) -> None:
        if not self.profile:
            return
        block = self.func.blocks[bi]
        tail_cycles = sum(
            instruction_cycles(resource_class(inst))
            for inst in block.instructions
            if not isinstance(inst, Phi)
        )
        if has_call:
            body.append(f"PBC{self.fi}[{bi}] += CY[0] - _cyin")
        else:
            body.append(f"PBC{self.fi}[{bi}] += {tail_cycles!r}")

    def _emit_goto(
        self, body: List[str], bi: int, block, target, has_call: bool
    ) -> None:
        """Jump to ``target``: edge-specific phi copies, profile epilogue,
        edge instrumentation, then return the target's block function."""
        phis = []
        for inst in target.instructions:
            if not isinstance(inst, Phi):
                break
            phis.append(inst)
        if len(phis) == 1:
            phi = phis[0]
            body.append(
                f"S[{self.slot[phi]}] = {self.expr(phi.incoming_for(block))}"
            )
        elif phis:
            # Parallel-copy semantics: read every incoming value before
            # writing any phi slot (phis may reference each other).
            temps = []
            for phi in phis:
                t = self.temp()
                temps.append(t)
                body.append(f"{t} = {self.expr(phi.incoming_for(block))}")
            for phi, t in zip(phis, temps):
                body.append(f"S[{self.slot[phi]}] = {t}")
        self._emit_block_cycles(body, bi, has_call)
        if self.profile:
            ei = self.edge_index(block, target)
            body.append(f"PE{self.fi}[{ei}] += 1")
        body.extend(self.interp._compile_edge(block, target, self.program.bind))
        body.append(f"return _f{self.fi}_b{self.block_index[target]}")

    # Per-instruction code ------------------------------------------------------

    def emit_inst(self, body: List[str], inst) -> None:
        if isinstance(inst, BinaryOp):
            self._emit_binary(body, inst)
        elif isinstance(inst, Load):
            self._emit_load(body, inst)
        elif isinstance(inst, Store):
            self._emit_store(body, inst)
            return  # void: no result to instrument
        elif isinstance(inst, GetElementPtr):
            self._emit_gep(body, inst)
        elif isinstance(inst, ICmp):
            op = _ICMP_OP[inst.predicate]
            lhs, rhs = self.expr(inst.operands[0]), self.expr(inst.operands[1])
            body.append(f"{self.dst(inst)} = 1 if {lhs} {op} {rhs} else 0")
        elif isinstance(inst, FCmp):
            op = _FCMP_OP[inst.predicate]
            lhs, rhs = self.expr(inst.operands[0]), self.expr(inst.operands[1])
            body.append(f"{self.dst(inst)} = 1 if {lhs} {op} {rhs} else 0")
        elif isinstance(inst, Select):
            cond, a, b = (self.expr(op) for op in inst.operands)
            body.append(f"{self.dst(inst)} = {a} if {cond} else {b}")
        elif isinstance(inst, Cast):
            self._emit_cast(body, inst)
        elif isinstance(inst, UnaryOp):
            self._emit_unary(body, inst)
        elif isinstance(inst, Alloca):
            ty = self.program.bind(inst.allocated_type, "TY")
            body.append(f"{self.dst(inst)} = ALLOC({ty})")
        elif isinstance(inst, Call):
            self._emit_call(body, inst)
        else:
            body.append(
                f"raise InterpreterError({f'cannot execute {inst.opcode}'!r})"
            )
            return
        dst = self.dst(inst)
        if dst is not None:
            operands = [self.expr(op) for op in inst.operands]
            body.extend(self.interp._compile_result(
                inst, dst, operands, self.program.bind
            ))

    def _emit_binary(self, body: List[str], inst) -> None:
        op = inst.opcode
        lhs, rhs = self.expr(inst.lhs), self.expr(inst.rhs)
        dst = self.dst(inst)
        bits = inst.type.bits
        if op in ("fadd", "fsub", "fmul", "fdiv"):
            if op == "fdiv":
                t = self.temp()
                body.append(f"{t} = {rhs}")
                if not (isinstance(inst.rhs, Constant) and inst.rhs.value != 0):
                    body.append(
                        f"if {t} == 0: raise InterpreterError("
                        '"float division by zero")'
                    )
                e = f"{lhs} / {t}"
            else:
                pyop = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
                e = f"{lhs} {pyop} {rhs}"
            if bits == 32:
                body.append(f"{dst} = _UPK4(_PK4({e}))[0]")
            else:
                body.append(f"{dst} = {e}")
            return
        if op in ("add", "sub", "mul", "and", "or", "xor"):
            pyop = {"add": "+", "sub": "-", "mul": "*", "and": "&",
                    "or": "|", "xor": "^"}[op]
            body.append(f"{dst} = {_wrap_expr(f'{lhs} {pyop} {rhs}', bits)}")
            return
        if op in ("div", "rem"):
            fn = "_c_div" if op == "div" else "_c_rem"
            kind = "division" if op == "div" else "remainder"
            t = self.temp()
            body.append(f"{t} = {rhs}")
            if not (isinstance(inst.rhs, Constant) and inst.rhs.value != 0):
                body.append(
                    f"if {t} == 0: raise InterpreterError("
                    f'"integer {kind} by zero")'
                )
            body.append(f"{dst} = {_wrap_expr(f'{fn}({lhs}, {t})', bits)}")
            return
        # shl / shr — trap on out-of-range amounts (matches the reference).
        pyop = "<<" if op == "shl" else ">>"
        if isinstance(inst.rhs, Constant):
            amount = inst.rhs.value
            if 0 <= amount < bits:
                body.append(f"{dst} = {_wrap_expr(f'{lhs} {pyop} {amount}', bits)}")
            else:
                body.append(
                    "raise InterpreterError("
                    f"{f'{op} amount {amount} out of range for i{bits}'!r})"
                )
            return
        t = self.temp()
        body.append(f"{t} = {rhs}")
        body.append(
            f"if {t} < 0 or {t} >= {bits}: raise InterpreterError("
            f'"{op} amount %d out of range for i{bits}" % {t})'
        )
        body.append(f"{dst} = {_wrap_expr(f'{lhs} {pyop} {t}', bits)}")

    def _emit_access_prologue(self, body: List[str], inst, nbytes: int) -> str:
        """Address temp + access instrumentation + bounds check/elision
        accounting."""
        t = self.temp()
        body.append(f"{t} = {self.expr(inst.pointer)}")
        body.extend(self.interp._compile_access(inst, t, self.program.bind))
        if self.elide and inst in self.interp._proven:
            body.append("AC[0] += 1")
        else:
            body.append("AC[1] += 1")
            body.append(
                f"if {t} < 64 or {t} + {nbytes} > {self._mem_size}: "
                'raise MemoryError_("access at %d (%d bytes) out of range"'
                f" % ({t}, {nbytes}))"
            )
        return t

    def _emit_load(self, body: List[str], inst) -> None:
        ty = inst.type
        dst = self.dst(inst)
        if isinstance(ty, IntType):
            nbytes = max(1, (ty.bits + 7) // 8)
            addr = self._emit_access_prologue(body, inst, nbytes)
            raw = self.temp()
            body.append(f'{raw} = _ifb(D[{addr}:{addr} + {nbytes}], "little")')
            if ty.bits > 1:
                sign = 1 << (ty.bits - 1)
                body.append(
                    f"{dst} = ({raw} & {sign - 1}) - ({raw} & {sign})"
                )
            else:
                body.append(f"{dst} = {raw} & 1")
        elif isinstance(ty, FloatType):
            nbytes = ty.bits // 8
            addr = self._emit_access_prologue(body, inst, nbytes)
            fn = "_UPF4" if ty.bits == 32 else "_UPF8"
            body.append(f"{dst} = {fn}(D, {addr})[0]")
        elif isinstance(ty, PointerType):
            addr = self._emit_access_prologue(body, inst, 8)
            body.append(f'{dst} = _ifb(D[{addr}:{addr} + 8], "little")')
        else:  # pragma: no cover - type system forbids other loads
            body.append(
                f"raise MemoryError_({f'cannot load type {ty}'!r})"
            )

    def _emit_store(self, body: List[str], inst) -> None:
        ty = inst.value.type
        value = self.expr(inst.value)
        if isinstance(ty, IntType):
            nbytes = max(1, (ty.bits + 7) // 8)
            addr = self._emit_access_prologue(body, inst, nbytes)
            mask = (1 << (8 * nbytes)) - 1
            body.append(
                f"D[{addr}:{addr} + {nbytes}] = "
                f'(int({value}) & {mask}).to_bytes({nbytes}, "little")'
            )
        elif isinstance(ty, FloatType):
            nbytes = ty.bits // 8
            addr = self._emit_access_prologue(body, inst, nbytes)
            fn = "_PKI4" if ty.bits == 32 else "_PKI8"
            body.append(f"{fn}(D, {addr}, float({value}))")
        elif isinstance(ty, PointerType):
            addr = self._emit_access_prologue(body, inst, 8)
            mask = (1 << 64) - 1
            body.append(
                f"D[{addr}:{addr} + 8] = "
                f'(int({value}) & {mask}).to_bytes(8, "little")'
            )
        else:  # pragma: no cover - type system forbids other stores
            body.append(
                f"raise MemoryError_({f'cannot store type {ty}'!r})"
            )

    def _emit_gep(self, body: List[str], inst) -> None:
        terms = [self.expr(inst.base)]
        offset = 0
        ty = inst.base.type.pointee
        for level, index in enumerate(inst.indices):
            if level > 0:
                if not isinstance(ty, ArrayType):
                    body.append(
                        'raise InterpreterError("gep descends into non-array")'
                    )
                    return
                ty = ty.element
            size = sizeof(ty)
            if isinstance(index, Constant):
                offset += index.value * size
            elif size == 1:
                terms.append(self.expr(index))
            else:
                terms.append(f"{self.expr(index)} * {size}")
        if offset:
            terms.append(repr(offset))
        body.append(f"{self.dst(inst)} = {' + '.join(terms)}")

    def _emit_cast(self, body: List[str], inst) -> None:
        op = inst.opcode
        value = self.expr(inst.operands[0])
        dst = self.dst(inst)
        bits = inst.type.bits
        if op == "sitofp":
            e = f"float({value})"
            if bits == 32:
                e = f"_UPK4(_PK4({e}))[0]"
            body.append(f"{dst} = {e}")
        elif op == "fptosi":
            body.append(f"{dst} = {_wrap_expr(f'int({value})', bits)}")
        elif op == "zext":
            src_mask = (1 << inst.operands[0].type.bits) - 1
            t = self.temp()
            body.append(f"{t} = {value}")
            body.append(f"if {t} < 0: {t} &= {src_mask}")
            body.append(f"{dst} = {_wrap_expr(t, bits)}")
        elif op in ("sext", "trunc"):
            body.append(f"{dst} = {_wrap_expr(value, bits)}")
        elif op == "fptrunc":
            body.append(f"{dst} = _UPK4(_PK4({value}))[0]")
        else:  # fpext
            body.append(f"{dst} = {value}")

    def _emit_unary(self, body: List[str], inst) -> None:
        op = inst.opcode
        value = self.expr(inst.operands[0])
        dst = self.dst(inst)
        bits = inst.type.bits
        if op == "fneg":
            body.append(f"{dst} = -({value})")
        elif op == "fsqrt":
            t = self.temp()
            body.append(f"{t} = {value}")
            body.append(
                f"if {t} < 0: raise InterpreterError("
                '"fsqrt of a negative value")'
            )
            e = f"_sqrt({t})"
            if bits == 32:
                e = f"_UPK4(_PK4({e}))[0]"
            body.append(f"{dst} = {e}")
        elif op == "fabs":
            body.append(f"{dst} = abs({value})")
        elif op == "neg":
            body.append(f"{dst} = {_wrap_expr(f'-({value})', bits)}")
        else:  # not
            body.append(f"{dst} = {_wrap_expr(f'~({value})', bits)}")

    def _emit_call(self, body: List[str], inst) -> None:
        callee = inst.callee
        if callee.is_declaration:
            body.append(
                "raise InterpreterError("
                f"{f'call to undefined function {callee.name}'!r})"
            )
            return
        fi = self.program._func_index[callee]
        args = ", ".join(self.expr(op) for op in inst.operands)
        dst = self.dst(inst)
        if dst is None:
            body.append(f"_f{fi}({args})")
        else:
            body.append(f"{dst} = _f{fi}({args})")
