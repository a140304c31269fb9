"""Static bounds proofs for memory accesses (interval-analysis client).

For every load/store whose pointer peels (through GEP chains) to a root
object of statically known size — a module global or an alloca — the proof
obligation is::

    0 <= lo(offset)    and    hi(offset) + sizeof(access) <= sizeof(root)

where ``offset`` is the interval sum of each GEP index's range (at the GEP's
program point) times that level's byte scale — exactly how the interpreter
computes addresses.  Accesses that discharge the obligation are *proven*:
the interpreter may elide their per-access bounds checks (the root object
itself is still range-checked when laid out / allocated), and the sanitizer
re-validates the claimed offset window at runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import (
    Alloca,
    Function,
    GetElementPtr,
    GlobalVariable,
    Instruction,
    Load,
    Module,
    Store,
    Value,
    sizeof,
)
from ..analysis.access_patterns import _walk_type_sizes
from .interval import Interval, ModuleIntervalAnalysis


class AccessWindow:
    """Resolved byte-offset window of a memory access against its root.

    Every access whose pointer peels to a sized root object gets a window,
    whether or not the in-bounds obligation discharges; :attr:`is_proven`
    and :attr:`definitely_out_of_bounds` classify it.
    """

    __slots__ = ("inst", "root", "offset", "access_size", "root_size")

    def __init__(
        self,
        inst: Instruction,
        root: Value,
        offset: Interval,
        access_size: int,
        root_size: int,
    ):
        self.inst = inst              # the Load or Store
        self.root = root              # GlobalVariable or Alloca
        self.offset = offset          # byte-offset interval from the root
        self.access_size = access_size
        self.root_size = root_size

    @property
    def is_proven(self) -> bool:
        """Every possible offset keeps the access inside the root."""
        off = self.offset
        return (
            off.lo is not None
            and off.hi is not None
            and off.lo >= 0
            and off.hi + self.access_size <= self.root_size
        )

    @property
    def definitely_out_of_bounds(self) -> bool:
        """Every possible offset puts part of the access outside the root."""
        off = self.offset
        if off.hi is not None and off.hi < 0:
            return True  # always starts before the object
        if off.lo is not None and off.lo + self.access_size > self.root_size:
            return True  # always extends past the end
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "Proven" if self.is_proven else "Window"
        return (
            f"<{kind} {self.inst.opcode} @{getattr(self.root, 'name', '?')}"
            f"+{self.offset} x{self.access_size}/{self.root_size}>"
        )


class BoundsAnalysis:
    """Module-wide classification of memory accesses into proven/unproven,
    over the module's interval analysis ``intervals``."""

    def __init__(self, module: Module, intervals: ModuleIntervalAnalysis):
        self.module = module
        self.intervals = intervals
        #: Load/Store → window for every access that peels to a sized root
        self.windows: Dict[Instruction, AccessWindow] = {}
        #: Load/Store → AccessWindow for every access with a discharged proof
        self.proven: Dict[Instruction, AccessWindow] = {}
        #: Per-function (proven, total) access counts
        self.counts: Dict[Function, Tuple[int, int]] = {}
        for func in module.defined_functions():
            self._analyze_function(func)

    def _analyze_function(self, func: Function) -> None:
        analysis = self.intervals.for_function(func)
        proven = total = 0
        for inst in func.instructions():
            if not isinstance(inst, (Load, Store)):
                continue
            total += 1
            window = self._resolve_window(inst, analysis)
            if window is not None:
                self.windows[inst] = window
                if window.is_proven:
                    self.proven[inst] = window
                    proven += 1
        self.counts[func] = (proven, total)

    def _resolve_window(self, inst, analysis) -> Optional[AccessWindow]:
        pointer = inst.pointer
        offset = Interval.constant(0)
        current = pointer
        while isinstance(current, GetElementPtr):
            scales = _walk_type_sizes(current.base.type.pointee)
            for level, index in enumerate(current.indices):
                scale = scales[min(level, len(scales) - 1)]
                index_iv = analysis.interval_at_use(index, current)
                offset = offset.add(index_iv._mul_const(scale))
            current = current.base
        if not isinstance(current, (GlobalVariable, Alloca)):
            return None
        root_size = sizeof(current.allocated_type)
        access_ty = inst.type if isinstance(inst, Load) else inst.value.type
        access_size = sizeof(access_ty)
        return AccessWindow(inst, current, offset, access_size, root_size)

    # Reporting ---------------------------------------------------------------

    def out_of_bounds(self) -> List[AccessWindow]:
        """Accesses whose window is *definitely* outside the root object
        (every execution of the access is out of bounds)."""
        return [w for w in self.windows.values() if w.definitely_out_of_bounds]

    def module_coverage(self) -> Tuple[int, int]:
        proven = sum(p for p, _ in self.counts.values())
        total = sum(t for _, t in self.counts.values())
        return proven, total

