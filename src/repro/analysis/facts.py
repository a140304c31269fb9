"""One bundle of static facts per module, shared by every consumer.

The accelerator model, the lint engine, the sanitizer, the narrowing
interpreter, the CLI probes and the bench sections all read the same
:class:`ModuleFacts`: the module-level dataflow results (intervals,
points-to, bounds, bitwidth) and one :class:`FunctionContext` per function
(access patterns, memory dependence, banking and reuse provers).  So the
sanitizer checks the very objects the estimator priced, and each analysis
runs once per module however many consumers ask.

:meth:`ModuleFacts.of` memoizes the bundle on the module, keyed by a
fingerprint of the IR: the printed text plus the identity shape (functions,
arguments, blocks, each instruction with its operand tuple, and the
globals).  The text catches in-place edits such as a changed predicate or
branch target; the shape catches an object replaced by an identical-looking
one.  Any edit therefore yields fresh facts, and no pass has to announce
its mutations.

The facts are shared, so no consumer may mutate them: a consumer that
perturbs a claim (the sanitizer's injection modes) copies it into its own
structures first.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional

from ..dataflow import (
    BoundsAnalysis,
    ModuleBitwidthAnalysis,
    ModuleIntervalAnalysis,
    PointsToAnalysis,
)
from ..ir import Function, Instruction, Module
from .access_patterns import AccessPatternAnalysis
from .banking import BankingAnalysis
from .cfg import reverse_postorder
from .loops import Loop, LoopInfo
from .memdep import MemoryDependenceAnalysis
from .reuse import ReuseAnalysis


class FunctionContext:
    """Cached per-function analyses shared by every consumer of the module's
    facts (candidate evaluations, lint rules, the CLI probes).

    ``points_to`` and ``intervals`` are the module-level dataflow results:
    points-to sharpens ``may_alias`` beyond the same-base test, and
    interval-proven access windows clamp scratchpad footprint estimates.
    ``bitwidth`` supplies proven datapath widths that narrow every DFG node
    below its type width (:attr:`widths`, computed on first read).
    """

    def __init__(self, func: Function, points_to=None, intervals=None,
                 bitwidth=None):
        self.func = func
        self.access = AccessPatternAnalysis(func)
        self.loop_info: LoopInfo = self.access.loop_info
        self.intervals = (
            intervals.for_function(func) if intervals is not None else None
        )
        self._bitwidth = bitwidth
        self.memdep = MemoryDependenceAnalysis(
            self.access, points_to=points_to, intervals=self.intervals,
        )
        #: The function's one affine-subscript resolver: the dependence
        #: tester, banking and reuse all read each access's form from it.
        self.resolver = self.memdep.resolver
        #: Scratchpad bank-conflict prover shared by every candidate config
        #: (verdicts are cached per group/lane structure).
        self.banking = BankingAnalysis(self.resolver)
        #: Inter-iteration data-reuse prover (shift-register buffers);
        #: verdicts are cached per (base, loop, member) structure.
        self.reuse = ReuseAnalysis(self.resolver, memdep=self.memdep)
        self.rpo_index = {b: i for i, b in enumerate(reverse_postorder(func))}

    @cached_property
    def widths(self) -> Optional[Dict[Instruction, int]]:
        """Instruction → proven width map for DFG construction (None without
        a bitwidth analysis, which keeps type widths)."""
        if self._bitwidth is None:
            return None
        return self._bitwidth.width_map(self.func)

    def may_alias(self, first: Instruction, second: Instruction) -> bool:
        """False only when the dependence analysis proves the two accesses'
        bases disjoint."""
        return self.memdep.bases_may_overlap(
            self.access.info(first), self.access.info(second)
        ) is not False

    def static_trip_bound(self, loop: Loop) -> Optional[int]:
        """Interval-proven upper bound on the loop trip count, if any."""
        return self.resolver.trip(loop)

    def ordered_blocks(self, blocks) -> List:
        return sorted(blocks, key=lambda b: self.rpo_index.get(b, 1 << 30))


def fingerprint(module: Module):
    """The IR text plus the identity shape of ``module``: two fingerprints
    are equal only if nothing an analysis reads has changed in between."""
    shape = (
        tuple(module.globals.values()),
        tuple(
            (
                func,
                tuple(func.arguments),
                tuple(
                    (
                        block,
                        tuple(
                            (inst, tuple(inst.operands))
                            for inst in block.instructions
                        ),
                    )
                    for block in func.blocks
                ),
            )
            for func in module.functions.values()
        ),
    )
    return str(module), shape


class ModuleFacts:
    """The static facts of one module, each analysis built on first read.

    Obtain it with :meth:`of`, which returns the same bundle until the
    module changes.
    """

    def __init__(self, module: Module):
        self.module = module
        self._contexts: Dict[Function, FunctionContext] = {}

    @classmethod
    def of(cls, module: Module) -> "ModuleFacts":
        """The facts of ``module`` as it is now: the memoized bundle while
        the module's fingerprint is unchanged, a fresh one otherwise."""
        key = fingerprint(module)
        memo = getattr(module, "_facts", None)
        if memo is not None and memo[0] == key:
            return memo[1]
        facts = cls(module)
        module._facts = (key, facts)
        return facts

    @cached_property
    def intervals(self) -> ModuleIntervalAnalysis:
        return ModuleIntervalAnalysis(self.module)

    @cached_property
    def points_to(self) -> PointsToAnalysis:
        return PointsToAnalysis(self.module)

    @cached_property
    def bounds(self) -> BoundsAnalysis:
        return BoundsAnalysis(self.module, self.intervals)

    @cached_property
    def bitwidth(self) -> ModuleBitwidthAnalysis:
        return ModuleBitwidthAnalysis(self.module, self.intervals)

    def context(self, func: Function) -> FunctionContext:
        """The one :class:`FunctionContext` of ``func``."""
        found = self._contexts.get(func)
        if found is None:
            found = self._contexts[func] = FunctionContext(
                func, points_to=self.points_to, intervals=self.intervals,
                bitwidth=self.bitwidth,
            )
        return found
