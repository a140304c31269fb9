"""Call graph over module functions."""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir import Call, Function, Module


class CallGraph:
    """Direct call graph: callers, callees, recursion detection."""

    def __init__(self, module: Module):
        self.module = module
        self.callees: Dict[Function, Set[Function]] = {}
        self.callers: Dict[Function, Set[Function]] = {}
        for func in module.functions.values():
            self.callees.setdefault(func, set())
            self.callers.setdefault(func, set())
        for func in module.defined_functions():
            for inst in func.instructions():
                if isinstance(inst, Call):
                    self.callees[func].add(inst.callee)
                    self.callers.setdefault(inst.callee, set()).add(func)

    def is_recursive(self, func: Function) -> bool:
        """True if ``func`` can (transitively) call itself."""
        seen: Set[Function] = set()
        stack = list(self.callees.get(func, ()))
        while stack:
            callee = stack.pop()
            if callee is func:
                return True
            if callee in seen:
                continue
            seen.add(callee)
            stack.extend(self.callees.get(callee, ()))
        return False

    def topological_order(self) -> List[Function]:
        """Callees-first order; recursion cycles broken arbitrarily."""
        order: List[Function] = []
        visited: Set[Function] = set()

        def visit(func: Function) -> None:
            if func in visited:
                return
            visited.add(func)
            for callee in self.callees.get(func, ()):
                visit(callee)
            order.append(func)

        for func in self.module.functions.values():
            visit(func)
        return order
