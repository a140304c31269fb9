"""Reference interpreter for the repro IR with a cycle cost model.

The interpreter serves two roles:

* **Correctness oracle** — tests compare interpreted results against Python
  reference implementations of the workloads.
* **Profiler substrate** — it counts executed instructions with the CPU cost
  model, per-block and per-edge, which is exactly the data Cayman's
  instrumentation pass gathers on real hardware (paper §III-F).
"""

from __future__ import annotations

import math
import struct
import time
from typing import Dict, List, Optional, Tuple

from ..ir import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    Constant,
    FCmp,
    Function,
    GetElementPtr,
    GlobalVariable,
    ICmp,
    Instruction,
    Load,
    Module,
    Phi,
    Return,
    Select,
    Store,
    UnaryOp,
    UndefValue,
    ArrayType,
    sizeof,
    resource_class,
)
from ..telemetry import current as current_telemetry
from .cpu_model import instruction_cycles
from .memory import FlatMemory


class ExecutionLimitExceeded(Exception):
    """The configured instruction budget ran out."""


class InterpreterError(Exception):
    """Runtime error during IR execution (bad operand, div by zero...)."""


def _wrap_int(value: int, bits: int) -> int:
    """Wrap a Python int to two's-complement of the given width."""
    mask = (1 << bits) - 1
    value &= mask
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign) if bits > 1 else value & 1


def _c_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_rem(a: int, b: int) -> int:
    return a - b * _c_div(a, b)


class ProfileCounters:
    """Raw execution counters filled in by the interpreter."""

    def __init__(self):
        self.block_count: Dict = {}
        self.block_instructions: Dict = {}  # non-phi instructions executed
        self.block_cycles: Dict = {}       # inclusive of callee time
        self.edge_count: Dict[Tuple, int] = {}
        self.func_entry_count: Dict = {}
        self.total_cycles: float = 0.0
        self.total_instructions: int = 0


class Interpreter:
    """Executes a module starting from an entry function."""

    def __init__(
        self,
        module: Module,
        memory_size: int = 1 << 22,
        max_instructions: int = 200_000_000,
        profile: bool = False,
        bounds=None,
        engine: str = "compiled",
    ):
        if engine not in ("compiled", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        self.engine = engine
        self.module = module
        self.memory = FlatMemory(memory_size)
        self.max_instructions = max_instructions
        self.profile = profile
        self.counters = ProfileCounters()
        self.cycles = 0.0
        self.instructions = 0
        self.global_addresses: Dict[GlobalVariable, int] = {}
        # Bounds-check elision: accesses a repro.dataflow.bounds.BoundsAnalysis
        # proved in-bounds skip the per-access memory range check.  The proofs
        # rely on interprocedural argument seeds, so elision is enabled per
        # top-level run only after the entry arguments match those seeds.
        self.bounds = bounds
        self._proven = frozenset(bounds.proven) if bounds is not None else frozenset()
        self._elide_enabled = False
        self._depth = 0
        self.elided_accesses = 0
        self.checked_accesses = 0
        # Subclasses set this to receive _on_block_transition callbacks on
        # the reference engine (the compiled engine emits _compile_edge).
        self._trace_blocks = False
        # Counter cells the compiled engine derives (_compile_tally).
        self._tally: Optional[List[int]] = None
        # Lazily built CompiledProgram per elision mode (compiled engine).
        self._programs: Dict[bool, object] = {}
        for var in module.globals.values():
            self.global_addresses[var] = self.memory.allocate(var.allocated_type)

    # Public API -------------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[List] = None):
        """Execute ``entry`` with the given argument values; returns its result."""
        func = self.module.get_function(entry)
        return self.call_function(func, args or [])

    def address_of_global(self, name: str) -> int:
        return self.global_addresses[self.module.get_global(name)]

    # Execution --------------------------------------------------------------

    def call_function(self, func: Function, args: List):
        if func.is_declaration:
            raise InterpreterError(f"call to undefined function {func.name}")
        if len(args) != len(func.arguments):
            raise InterpreterError(
                f"{func.name} expects {len(func.arguments)} args, got {len(args)}"
            )
        if self._depth == 0:
            tele = current_telemetry()
            if tele.enabled:
                # Telemetry stays at the top-level call boundary: counters
                # are flushed as deltas once per run, never per instruction,
                # so the compiled engine's hot loop is untouched.
                return self._call_top_level_traced(tele, func, args)
        return self._call_function_inner(func, args)

    def _call_function_inner(self, func: Function, args: List):
        self._depth += 1
        try:
            if self._depth == 1 and self._proven:
                self._elide_enabled = self._args_in_seeds(
                    self.bounds.intervals, func, args
                )
            return self._run_function(func, args)
        finally:
            self._depth -= 1

    def _call_top_level_traced(self, tele, func: Function, args: List):
        instructions0 = self.instructions
        elided0 = self.elided_accesses
        checked0 = self.checked_accesses
        with tele.span("interp.run", function=func.name, engine=self.engine):
            start = time.perf_counter()
            try:
                return self._call_function_inner(func, args)
            finally:
                tele.record(
                    "interp.exec_seconds", time.perf_counter() - start
                )
                tele.count("interp.runs")
                tele.count(
                    "interp.instructions", self.instructions - instructions0
                )
                tele.count(
                    "interp.elided_accesses",
                    self.elided_accesses - elided0,
                )
                tele.count(
                    "interp.checked_accesses",
                    self.checked_accesses - checked0,
                )

    @staticmethod
    def _args_in_seeds(intervals, func: Function, args: List) -> bool:
        """The static facts (bounds proofs, proven widths, sanitizer claims)
        assume each function's integer arguments stay inside the seeded
        call-site ranges.  A top-level entry invoked with out-of-seed
        arguments (e.g. a kernel driven directly instead of via ``main``)
        runs without them: fully checked, unnarrowed, unvalidated."""
        analysis = intervals.for_function(func)
        for formal, actual in zip(func.arguments, args):
            seeded = analysis.arg_intervals.get(formal)
            if seeded is not None and not seeded.contains(actual):
                return False
        return True

    def _run_function(self, func: Function, args: List):
        if self.engine == "compiled":
            return self._program().invoke(func, args)
        return self._run_reference(func, args)

    def _program(self):
        """The compiled program matching the current elision mode.

        Compilation is lazy (first run) and cached per elision flag; the
        module must not be mutated between runs of the same interpreter.
        """
        key = bool(self._elide_enabled)
        program = self._programs.get(key)
        if program is None:
            from .compiled import CompiledProgram

            tele = current_telemetry()
            with tele.span("interp.compile", elide=key):
                start = time.perf_counter()
                program = CompiledProgram(self, elide=key)
                if tele.enabled:
                    tele.count("interp.compiles")
                    tele.record(
                        "interp.compile_seconds",
                        time.perf_counter() - start,
                    )
            self._programs[key] = program
        return program

    def precompile(self, elide: Optional[bool] = None) -> None:
        """Build the compiled program ahead of the first ``run``.

        Translation happens lazily on first execution otherwise; callers
        timing execution throughput (``repro bench``) use this to keep the
        one-time compile cost out of the measured window.  ``elide``
        defaults to the mode a seed-matching top-level run would use.
        No-op on the reference engine.
        """
        if self.engine != "compiled":
            return
        key = bool(self._proven) if elide is None else bool(elide)
        saved = self._elide_enabled
        self._elide_enabled = key
        try:
            self._program()
        finally:
            self._elide_enabled = saved

    # Compile-time instrumentation (compiled engine) ---------------------------
    #
    # Subclasses return source lines the compiled engine splices in where the
    # reference engine's ``_execute`` override and ``_on_block_transition``
    # fire.  ``bind(obj, prefix)`` binds an object into the generated code's
    # namespace and returns its name.

    def _compile_result(self, inst: Instruction, dst: str, operands, bind):
        """Lines run right after ``inst``'s value is stored to ``dst``;
        ``operands`` are the source expressions of its operands."""
        return []

    def _compile_access(self, inst: Instruction, addr: str, bind):
        """Lines run before a Load/Store executes, with its address in the
        local ``addr``."""
        return []

    def _compile_edge(self, prev_block, block, bind):
        """Lines run on each jump from ``prev_block`` to ``block``, and at
        function entry with ``prev_block`` None."""
        return []

    def _compile_tally(self, inst: Instruction) -> Tuple[int, ...]:
        """Per-execution increments ``inst`` adds to each ``_tally`` cell,
        which the compiled engine derives like its instruction count."""
        return ()

    def _run_reference(self, func: Function, args: List):
        env: Dict = {}
        for formal, actual in zip(func.arguments, args):
            env[formal] = actual
        if self.profile:
            counters = self.counters
            counters.func_entry_count[func] = counters.func_entry_count.get(func, 0) + 1

        block = func.entry
        prev_block = None
        while True:
            if self._trace_blocks:
                self._on_block_transition(func, prev_block, block)
            if self.profile:
                self.counters.block_count[block] = (
                    self.counters.block_count.get(block, 0) + 1
                )
                if prev_block is not None:
                    key = (prev_block, block)
                    self.counters.edge_count[key] = (
                        self.counters.edge_count.get(key, 0) + 1
                    )
                cycles_at_entry = self.cycles

            # Phis first, evaluated atomically against the predecessor.
            instructions = block.instructions
            if not instructions:
                raise InterpreterError(f"block {block.name} is empty")
            index = 0
            if isinstance(instructions[0], Phi):
                phi_values = []
                while index < len(instructions) and isinstance(
                    instructions[index], Phi
                ):
                    phi = instructions[index]
                    phi_values.append(
                        (phi, self._value(env, phi.incoming_for(prev_block)))
                    )
                    index += 1
                for phi, value in phi_values:
                    env[phi] = value

            if self.profile:
                # Non-phi instructions this execution will retire; phis are
                # free parallel copies and never hit the instruction counter.
                self.counters.block_instructions[block] = (
                    self.counters.block_instructions.get(block, 0)
                    + len(instructions) - index
                )

            result = None
            next_block = None
            for inst in instructions[index:]:
                self.instructions += 1
                if self.instructions > self.max_instructions:
                    raise ExecutionLimitExceeded(
                        f"exceeded {self.max_instructions} instructions"
                    )
                self.cycles += instruction_cycles(resource_class(inst))
                if isinstance(inst, Branch):
                    next_block = inst.target
                elif isinstance(inst, CondBranch):
                    next_block = (
                        inst.true_target
                        if self._value(env, inst.condition)
                        else inst.false_target
                    )
                elif isinstance(inst, Return):
                    result = (
                        self._value(env, inst.value) if inst.value is not None else None
                    )
                    if self.profile:
                        self.counters.block_cycles[block] = (
                            self.counters.block_cycles.get(block, 0.0)
                            + self.cycles - cycles_at_entry
                        )
                    return result
                else:
                    env[inst] = self._execute(inst, env)

            if self.profile:
                self.counters.block_cycles[block] = (
                    self.counters.block_cycles.get(block, 0.0)
                    + self.cycles - cycles_at_entry
                )
            if next_block is None:
                raise InterpreterError(f"block {block.name} fell through")
            prev_block, block = block, next_block

    def _on_block_transition(self, func, prev_block, block) -> None:
        """Hook invoked before each basic block executes when
        ``_trace_blocks`` is set (used by the sanitizer to track loop
        iterations).  ``prev_block`` is None at function entry."""

    # Single-instruction execution ------------------------------------------------

    def _value(self, env: Dict, value):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalVariable):
            return self.global_addresses[value]
        if isinstance(value, UndefValue):
            return 0
        try:
            return env[value]
        except KeyError:
            raise InterpreterError(f"use of unevaluated value {value.ref}") from None

    def _execute(self, inst: Instruction, env: Dict):
        if isinstance(inst, BinaryOp):
            return self._binary(inst, env)
        if isinstance(inst, Load):
            address = self._value(env, inst.pointer)
            if self._elide_enabled and inst in self._proven:
                self.elided_accesses += 1
                return self.memory.load_unchecked(address, inst.type)
            self.checked_accesses += 1
            return self.memory.load(address, inst.type)
        if isinstance(inst, Store):
            address = self._value(env, inst.pointer)
            value = self._value(env, inst.value)
            if self._elide_enabled and inst in self._proven:
                self.elided_accesses += 1
                self.memory.store_unchecked(address, inst.value.type, value)
            else:
                self.checked_accesses += 1
                self.memory.store(address, inst.value.type, value)
            return None
        if isinstance(inst, GetElementPtr):
            return self._gep(inst, env)
        if isinstance(inst, ICmp):
            lhs = self._value(env, inst.operands[0])
            rhs = self._value(env, inst.operands[1])
            return 1 if _ICMP_FN[inst.predicate](lhs, rhs) else 0
        if isinstance(inst, FCmp):
            lhs = self._value(env, inst.operands[0])
            rhs = self._value(env, inst.operands[1])
            return 1 if _FCMP_FN[inst.predicate](lhs, rhs) else 0
        if isinstance(inst, Select):
            cond, a, b = (self._value(env, op) for op in inst.operands)
            return a if cond else b
        if isinstance(inst, Cast):
            return self._cast(inst, env)
        if isinstance(inst, UnaryOp):
            operand = self._value(env, inst.operands[0])
            if inst.opcode == "fneg":
                return -operand
            if inst.opcode == "fsqrt":
                if operand < 0:
                    raise InterpreterError("fsqrt of a negative value")
                result = math.sqrt(operand)
                if inst.type.bits == 32:
                    result = struct.unpack("<f", struct.pack("<f", result))[0]
                return result
            if inst.opcode == "fabs":
                return abs(operand)
            if inst.opcode == "neg":
                return _wrap_int(-operand, inst.type.bits)
            return _wrap_int(~operand, inst.type.bits)
        if isinstance(inst, Alloca):
            return self.memory.allocate(inst.allocated_type)
        if isinstance(inst, Call):
            args = [self._value(env, op) for op in inst.operands]
            return self.call_function(inst.callee, args)
        raise InterpreterError(f"cannot execute {inst.opcode}")

    def _binary(self, inst: BinaryOp, env: Dict):
        lhs = self._value(env, inst.lhs)
        rhs = self._value(env, inst.rhs)
        op = inst.opcode
        if op == "fadd":
            result = lhs + rhs
        elif op == "fsub":
            result = lhs - rhs
        elif op == "fmul":
            result = lhs * rhs
        elif op == "fdiv":
            if rhs == 0:
                raise InterpreterError("float division by zero")
            result = lhs / rhs
        else:
            if op == "add":
                result = lhs + rhs
            elif op == "sub":
                result = lhs - rhs
            elif op == "mul":
                result = lhs * rhs
            elif op == "div":
                if rhs == 0:
                    raise InterpreterError("integer division by zero")
                result = _c_div(lhs, rhs)
            elif op == "rem":
                if rhs == 0:
                    raise InterpreterError("integer remainder by zero")
                result = _c_rem(lhs, rhs)
            elif op == "and":
                result = lhs & rhs
            elif op == "or":
                result = lhs | rhs
            elif op == "xor":
                result = lhs ^ rhs
            elif op == "shl":
                if rhs < 0 or rhs >= inst.type.bits:
                    raise InterpreterError(
                        f"shl amount {rhs} out of range for i{inst.type.bits}"
                    )
                result = lhs << rhs
            elif op == "shr":
                if rhs < 0 or rhs >= inst.type.bits:
                    raise InterpreterError(
                        f"shr amount {rhs} out of range for i{inst.type.bits}"
                    )
                result = lhs >> rhs
            else:  # pragma: no cover - opcode set is closed
                raise InterpreterError(f"unknown binary op {op}")
            return _wrap_int(result, inst.type.bits)
        if inst.type.bits == 32:
            # Round float32 arithmetic to storable precision.
            result = struct.unpack("<f", struct.pack("<f", result))[0]
        return result

    def _gep(self, inst: GetElementPtr, env: Dict) -> int:
        address = self._value(env, inst.base)
        ty = inst.base.type.pointee
        for level, index in enumerate(inst.indices):
            index_value = self._value(env, index)
            if level == 0:
                address += index_value * sizeof(ty)
            else:
                if not isinstance(ty, ArrayType):
                    raise InterpreterError("gep descends into non-array")
                ty = ty.element
                address += index_value * sizeof(ty)
        return address

    def _cast(self, inst: Cast, env: Dict):
        value = self._value(env, inst.operands[0])
        op = inst.opcode
        if op == "sitofp":
            result = float(value)
            if inst.type.bits == 32:
                result = struct.unpack("<f", struct.pack("<f", result))[0]
            return result
        if op == "fptosi":
            return _wrap_int(int(value), inst.type.bits)
        if op in ("sext", "zext", "trunc"):
            if op == "zext" and value < 0:
                value &= (1 << inst.operands[0].type.bits) - 1
            return _wrap_int(value, inst.type.bits)
        if op == "fptrunc":
            return struct.unpack("<f", struct.pack("<f", value))[0]
        return value  # fpext


_ICMP_FN = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
}

_FCMP_FN = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}
