"""Flow-insensitive Andersen-style points-to analysis.

Every pointer-typed SSA value is mapped to the set of *allocation sites* it
may address: module globals, allocas, and — for functions no one in the
module calls — opaque per-argument external sites.  Constraints are the
classic inclusion kind (``p ⊇ q`` along copies, ``*p ⊇ q`` at stores,
``p ⊇ *q`` at loads, formal ⊇ actual at intra-module calls) solved to a
fixpoint; the analysis is field-insensitive (a GEP addresses the same site
as its base).

The client-facing query is :meth:`PointsToAnalysis.may_alias`: two pointers
may alias iff their site sets intersect, either set is empty (nothing
provable), or both reach *external* sites — two pointer arguments of an
externally-callable function can name the same buffer, which is exactly the
case the ``restrict`` model (the sanitizer's ``alias`` injection) gets wrong.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..ir import (
    Alloca,
    Call,
    Function,
    GetElementPtr,
    Load,
    Module,
    Phi,
    Return,
    Select,
    Store,
    Value,
)


class AllocSite:
    """One abstract memory object.

    ``kind`` is ``"global"``, ``"alloca"``, ``"external"`` (an opaque buffer
    handed to an externally-callable function's pointer argument), or
    ``"unknown"`` (anything a declared-only function may return or capture).
    """

    __slots__ = ("kind", "value", "order", "label")

    def __init__(self, kind: str, value: Optional[Value], order: int, label: str):
        self.kind = kind
        self.value = value
        self.order = order       # deterministic discovery index
        self.label = label

    @property
    def is_external(self) -> bool:
        return self.kind in ("external", "unknown")

    def __repr__(self) -> str:
        return f"<Site {self.label}>"


class PointsToAnalysis:
    """Module-wide inclusion-based points-to sets."""

    def __init__(self, module: Module):
        self.module = module
        self._sites: List[AllocSite] = []
        self._site_of: Dict[Value, AllocSite] = {}
        #: pointer SSA value → set of sites it may address
        self.pts: Dict[Value, Set[AllocSite]] = {}
        #: site → set of sites stored *into* it (pointer-typed contents)
        self.contents: Dict[AllocSite, Set[AllocSite]] = {}
        self.unknown = self._new_site("unknown", None, "<unknown>")
        self._callers = self._count_callers()
        self._solve()

    # Construction -----------------------------------------------------------

    def _new_site(self, kind: str, value: Optional[Value], label: str) -> AllocSite:
        site = AllocSite(kind, value, len(self._sites), label)
        self._sites.append(site)
        return site

    def _site_for(self, kind: str, value: Value, label: str) -> AllocSite:
        found = self._site_of.get(value)
        if found is None:
            found = self._new_site(kind, value, label)
            self._site_of[value] = found
        return found

    def _count_callers(self) -> Dict[Function, int]:
        counts: Dict[Function, int] = {}
        for func in self.module.defined_functions():
            for inst in func.instructions():
                if isinstance(inst, Call):
                    counts[inst.callee] = counts.get(inst.callee, 0) + 1
        return counts

    def _pts(self, value: Value) -> Set[AllocSite]:
        found = self.pts.get(value)
        if found is None:
            found = set()
            self.pts[value] = found
        return found

    def _seed(self) -> None:
        for gv in self.module.globals.values():
            self._pts(gv).add(self._site_for("global", gv, f"@{gv.name}"))
        for func in self.module.defined_functions():
            external = self._callers.get(func, 0) == 0
            for arg in func.arguments:
                if arg.type.is_pointer and external:
                    self._pts(arg).add(
                        self._site_for(
                            "external", arg, f"@{func.name}:%{arg.name}"
                        )
                    )
            for inst in func.instructions():
                if isinstance(inst, Alloca):
                    self._pts(inst).add(
                        self._site_for(
                            "alloca", inst, f"@{func.name}:%{inst.name}"
                        )
                    )

    def _solve(self) -> None:
        self._seed()
        # Gather the copy/load/store/call constraints once, then iterate to
        # a fixpoint.  Module sizes here are tiny; simplicity beats indexing.
        copies: List[Tuple[Value, Value]] = []       # dst ⊇ src
        loads: List[Tuple[Value, Value]] = []        # dst ⊇ *ptr
        stores: List[Tuple[Value, Value]] = []       # *ptr ⊇ src
        escapes: List[Value] = []                    # handed to a declaration
        returns: Dict[Function, List[Value]] = {}
        for func in self.module.defined_functions():
            for inst in func.instructions():
                if isinstance(inst, GetElementPtr):
                    copies.append((inst, inst.base))
                elif isinstance(inst, Phi) and inst.type.is_pointer:
                    for value, _pred in inst.incoming():
                        copies.append((inst, value))
                elif isinstance(inst, Select) and inst.type.is_pointer:
                    copies.append((inst, inst.operands[1]))
                    copies.append((inst, inst.operands[2]))
                elif isinstance(inst, Load) and inst.type.is_pointer:
                    loads.append((inst, inst.pointer))
                elif isinstance(inst, Store) and inst.value.type.is_pointer:
                    stores.append((inst.pointer, inst.value))
                elif isinstance(inst, Call):
                    callee = inst.callee
                    if callee.is_declaration:
                        escapes.extend(
                            a for a in inst.operands if a.type.is_pointer
                        )
                        if inst.type.is_pointer:
                            self._pts(inst).add(self.unknown)
                    else:
                        for formal, actual in zip(callee.arguments, inst.operands):
                            if formal.type.is_pointer:
                                copies.append((formal, actual))
                        if inst.type.is_pointer:
                            returns.setdefault(callee, [])
                            copies.append((inst, callee))
                elif isinstance(inst, Return) and inst.value is not None:
                    if inst.value.type.is_pointer:
                        returns.setdefault(func, []).append(inst.value)
        for func, values in returns.items():
            for value in values:
                copies.append((func, value))
        for value in escapes:
            # A declaration may store arbitrary pointers through an escaped
            # pointer and may retain it; its contents become unknown.
            stores_unknown = self._pts(value)
            for site in list(stores_unknown):
                self.contents.setdefault(site, set()).add(self.unknown)

        changed = True
        while changed:
            changed = False
            for dst, src in copies:
                dst_set = self._pts(dst)
                before = len(dst_set)
                dst_set.update(self._pts(src))
                changed |= len(dst_set) != before
            for dst, ptr in loads:
                dst_set = self._pts(dst)
                before = len(dst_set)
                for site in list(self._pts(ptr)):
                    dst_set.update(self.contents.get(site, ()))
                    if site.is_external:
                        dst_set.add(self.unknown)
                changed |= len(dst_set) != before
            for ptr, src in stores:
                src_set = self._pts(src)
                for site in list(self._pts(ptr)):
                    bucket = self.contents.setdefault(site, set())
                    before = len(bucket)
                    bucket.update(src_set)
                    changed |= len(bucket) != before
            for value in escapes:
                for site in list(self._pts(value)):
                    bucket = self.contents.setdefault(site, set())
                    if self.unknown not in bucket:
                        bucket.add(self.unknown)
                        changed = True

    # Queries ----------------------------------------------------------------

    def points_to(self, value: Value) -> FrozenSet[AllocSite]:
        """The may-point-to set of a pointer SSA value (possibly empty when
        nothing was provable — treat empty as ⊤, not ⊥)."""
        return frozenset(self.pts.get(value, ()))

    def site_labels(self, value: Value) -> List[str]:
        return sorted(
            (s.label for s in self.points_to(value)),
        )

    def may_alias(self, a: Value, b: Value) -> bool:
        """Whether pointers ``a`` and ``b`` may address overlapping memory."""
        if a is b:
            return True
        sa = self.points_to(a)
        sb = self.points_to(b)
        if not sa or not sb:
            return True  # nothing proven about one side
        if sa & sb:
            return True
        # Distinct external sites are *not* known-disjoint: two pointer
        # arguments of an externally-called function may name one buffer.
        if any(s.is_external for s in sa) and any(s.is_external for s in sb):
            return True
        return False
