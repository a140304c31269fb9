"""Narrowing interpreter: executes the *narrowed* datapath bit-for-bit.

The bitwidth analysis claims every integer instruction can be implemented
on ``proven_width(inst)`` datapath bits: the full-width value is
reconstructed by zero-extension (when the dropped high bits are known
zero) or sign-extension from the narrow sign bit (the
:func:`~repro.dataflow.bitwidth.demanded_truncate` contract).  This
interpreter simulates exactly that hardware — after every integer
instruction it truncates the result to its proven width and re-extends —
so running a workload under it and comparing outputs against the plain
:class:`~repro.interp.interpreter.Interpreter` validates the end-to-end
claim: *narrowing is observably invisible*.  Any diverging output byte
means an unsound proven width.

Like bounds elision and the sanitizer, the claims are conditional on the
interprocedural argument seeds; a top-level entry driven outside its
seeded ranges disables narrowing for the run (``narrowing_active`` turns
False) instead of faulting on vacuous claims.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Tuple

from ..ir import Function, Instruction, Module
from ..analysis.facts import ModuleFacts
from .interpreter import Interpreter


def _extend(value: int, width: int, bits: int, zero_extend: bool) -> int:
    """Reconstruct a ``bits``-wide value from its ``width`` datapath bits."""
    low = value & ((1 << width) - 1)
    if zero_extend or not (low >> (width - 1)) & 1:
        return low
    # Negative: replicate the narrow sign bit (two's complement).
    return low - (1 << width)


class NarrowingInterpreter(Interpreter):
    """Interpreter whose integer datapaths are ``proven_width`` bits wide."""

    def __init__(
        self,
        module: Module,
        memory_size: int = 1 << 22,
        max_instructions: int = 200_000_000,
        profile: bool = False,
        engine: str = "compiled",
    ):
        super().__init__(
            module, memory_size, max_instructions, profile, bounds=None,
            engine=engine,
        )
        facts = ModuleFacts.of(module)
        self.intervals = facts.intervals
        self.bitwidth = facts.bitwidth
        #: inst → (proven width, zero-extend?) for every narrowable inst
        self._narrow: Dict[Instruction, Tuple[int, bool]] = {}
        #: results actually passed through a narrowing truncate+extend
        self.narrowed_results = 0
        self.narrowing_active = True
        for func in module.defined_functions():
            analysis = self.bitwidth.for_function(func)
            for inst in func.instructions():
                if not inst.type.is_int:
                    continue
                bits = inst.type.bits
                width = analysis.proven_width(inst)
                if width >= bits:
                    continue
                zero_extend = (
                    analysis.known(inst).leading_zeros() >= bits - width
                )
                self._narrow[inst] = (width, zero_extend)

    # Entry gating (mirrors elision / sanitizer semantics) --------------------

    def call_function(self, func: Function, args: List):
        if self._depth == 0 and not self._args_in_seeds(self.intervals, func, args):
            self.narrowing_active = False
        return super().call_function(func, args)

    # Narrowed execution ------------------------------------------------------

    def _apply_narrowing(self, inst: Instruction, result):
        """Truncate+re-extend ``result`` to ``inst``'s proven width; shared
        by the reference ``_execute`` override and the compiled-engine hook."""
        if (
            self.narrowing_active
            and result is not None
            and inst.type.is_int
        ):
            spec = self._narrow.get(inst)
            if spec is not None:
                width, zero_extend = spec
                self.narrowed_results += 1
                bits = inst.type.bits
                narrowed = _extend(result, width, bits, zero_extend)
                if bits <= 1:
                    narrowed &= 1  # i1 stays unsigned 0/1
                result = narrowed
        return result

    def _execute(self, inst: Instruction, env: Dict):
        return self._apply_narrowing(inst, super()._execute(inst, env))

    def _compile_result(self, inst: Instruction, dst: str, operands, bind):
        if inst not in self._narrow:
            return []
        narrow = bind(partial(self._apply_narrowing, inst), "H")
        return [f"{dst} = {narrow}({dst})"]
