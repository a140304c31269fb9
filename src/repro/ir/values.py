"""Core value classes of the repro IR.

Everything an instruction can reference is a :class:`Value`: constants,
function arguments, global variables, and the results of other instructions.
Values track their users (def-use chains), which the analyses and the
accelerator model rely on heavily.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, Optional

from .types import FloatType, IntType, PointerType, Type

if TYPE_CHECKING:  # pragma: no cover
    from .instructions import Instruction

_name_counter = itertools.count()


def _fresh_name(prefix: str) -> str:
    return f"{prefix}{next(_name_counter)}"


class Value:
    """Base class for everything that carries an IR type and can be used."""

    def __init__(self, ty: Type, name: str = ""):
        self.type = ty
        self.name = name or _fresh_name("v")
        self.users: List["Instruction"] = []

    def add_user(self, user: "Instruction") -> None:
        self.users.append(user)

    def remove_user(self, user: "Instruction") -> None:
        # A user may reference the same value through several operand slots;
        # remove one tracking entry per removed reference.
        self.users.remove(user)

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every use of ``self`` to use ``new`` instead."""
        if new is self:
            return
        for user in list(self.users):
            user.replace_operand(self, new)

    @property
    def ref(self) -> str:
        """Printable reference, e.g. ``%x`` for locals or a literal for constants."""
        return f"%{self.name}"

    def __str__(self) -> str:
        return self.ref

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.type} {self.ref}>"


class Constant(Value):
    """A compile-time scalar constant (integer, boolean, or float)."""

    def __init__(self, ty: Type, value):
        super().__init__(ty, name=f"const_{value}")
        if isinstance(ty, IntType):
            value = int(value)
        elif isinstance(ty, FloatType):
            value = float(value)
        else:
            raise TypeError(f"constants must be scalar, got {ty}")
        self.value = value

    @property
    def ref(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and self.type == other.type
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class UndefValue(Value):
    """Placeholder for an undefined value (e.g. uninitialized phi input)."""

    @property
    def ref(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a :class:`~repro.ir.function.Function`."""

    def __init__(self, ty: Type, name: str, index: int):
        super().__init__(ty, name)
        self.index = index


class GlobalVariable(Value):
    """Module-level storage.

    The value's type is a pointer to ``allocated_type``; like LLVM globals,
    using the global yields its address.
    """

    def __init__(self, allocated_type: Type, name: str, initializer=None):
        super().__init__(PointerType(allocated_type), name)
        self.allocated_type = allocated_type
        self.initializer = initializer

    @property
    def ref(self) -> str:
        return f"@{self.name}"


def constant_fold_binary(op: str, lhs: Constant, rhs: Constant) -> Optional[Constant]:
    """Fold a binary operation over two constants, or return None.

    Integer division semantics follow C (truncation toward zero) because the
    frontend lowers C sources.
    """
    a, b = lhs.value, rhs.value
    ty = lhs.type
    try:
        if op == "add":
            return Constant(ty, a + b)
        if op == "sub":
            return Constant(ty, a - b)
        if op == "mul":
            return Constant(ty, a * b)
        if op == "div":
            if isinstance(ty, IntType):
                if b == 0:
                    return None
                q = abs(a) // abs(b)
                return Constant(ty, q if (a >= 0) == (b >= 0) else -q)
            return Constant(ty, a / b) if b != 0 else None
        if op == "rem":
            if b == 0:
                return None
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return Constant(ty, a - b * q)
        if op == "and":
            return Constant(ty, a & b)
        if op == "or":
            return Constant(ty, a | b)
        if op == "xor":
            return Constant(ty, a ^ b)
        if op == "shl":
            # Out-of-range amounts trap at runtime (InterpreterError); never
            # fold them away silently.
            if b < 0 or b >= ty.bits:
                return None
            return Constant(ty, a << b)
        if op == "shr":
            if b < 0 or b >= ty.bits:
                return None
            return Constant(ty, a >> b)
    except (TypeError, ValueError, OverflowError):
        return None
    return None
