"""Textual printing of IR with stable, de-duplicated value names."""

from __future__ import annotations

from typing import Dict

from .function import Function
from .module import Module


def _assign_names(func: Function) -> None:
    """Give every instruction result and argument a unique printable name."""
    seen: Dict[str, int] = {}

    def uniquify(base: str) -> str:
        if base not in seen:
            seen[base] = 0
            return base
        seen[base] += 1
        return f"{base}.{seen[base]}"

    for arg in func.arguments:
        arg.name = uniquify(arg.name)
    for block in func.blocks:
        for inst in block.instructions:
            if not inst.type.is_void:
                inst.name = uniquify(inst.name)


def print_function(func: Function) -> str:
    """Render ``func`` as text after normalizing value names."""
    _assign_names(func)
    return str(func)


def print_module(module: Module) -> str:
    """Render a full module as text."""
    parts = [f"; module {module.name}"]
    for var in module.globals.values():
        parts.append(f"@{var.name} = global {var.allocated_type}")
    for func in module.functions.values():
        if func.is_declaration:
            parts.append(str(func))
        else:
            parts.append(print_function(func))
    return "\n\n".join(parts)
