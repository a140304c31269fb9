"""Type system for the repro IR.

The IR is strongly typed in the style of LLVM: every :class:`~repro.ir.values.Value`
carries a type, and instructions check operand types at construction time.
Types are immutable and compared structurally, so they can be freely shared
and used as dictionary keys.
"""

from __future__ import annotations

from typing import Tuple


class Type:
    """Base class of all IR types."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        return ()

    # Classification helpers -------------------------------------------------

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_int(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_bool(self) -> bool:
        return isinstance(self, IntType) and self.bits == 1

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_scalar(self) -> bool:
        return self.is_int or self.is_float

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self}>"


class VoidType(Type):
    """The type of functions that return nothing."""

    def __str__(self) -> str:
        return "void"


class IntType(Type):
    """Fixed-width two's-complement integer type (``i1``, ``i32``, ``i64``...)."""

    def __init__(self, bits: int):
        if bits <= 0:
            raise ValueError(f"integer width must be positive, got {bits}")
        self.bits = bits

    def _key(self) -> tuple:
        return (self.bits,)

    def __str__(self) -> str:
        return f"i{self.bits}"

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.bits > 1 else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.bits > 1 else 1


class FloatType(Type):
    """IEEE floating-point type (``f32`` or ``f64``)."""

    def __init__(self, bits: int):
        if bits not in (32, 64):
            raise ValueError(f"float width must be 32 or 64, got {bits}")
        self.bits = bits

    def _key(self) -> tuple:
        return (self.bits,)

    def __str__(self) -> str:
        return f"f{self.bits}"


class PointerType(Type):
    """Pointer to a pointee type.

    Pointers are byte-addressed; :class:`~repro.ir.instructions.GetElementPtr`
    performs typed address arithmetic over them.
    """

    def __init__(self, pointee: Type):
        if pointee.is_void:
            raise ValueError("cannot point to void")
        self.pointee = pointee

    def _key(self) -> tuple:
        return (self.pointee,)

    def __str__(self) -> str:
        return f"{self.pointee}*"


class ArrayType(Type):
    """Fixed-size array type, possibly multi-dimensional via nesting."""

    def __init__(self, element: Type, count: int):
        if count < 0:
            raise ValueError(f"array count must be non-negative, got {count}")
        if element.is_void:
            raise ValueError("array of void is not allowed")
        self.element = element
        self.count = count

    def _key(self) -> tuple:
        return (self.element, self.count)

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    @property
    def flattened_count(self) -> int:
        """Total number of scalar elements in a (possibly nested) array."""
        if isinstance(self.element, ArrayType):
            return self.count * self.element.flattened_count
        return self.count


class FunctionType(Type):
    """Type of a function: return type plus parameter types."""

    def __init__(self, return_type: Type, param_types: Tuple[Type, ...]):
        self.return_type = return_type
        self.param_types = tuple(param_types)

    def _key(self) -> tuple:
        return (self.return_type, self.param_types)

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.param_types)
        return f"{self.return_type} ({params})"


def sizeof(ty: Type) -> int:
    """Byte size of a type as laid out in the interpreter's flat memory."""
    if isinstance(ty, IntType):
        return max(1, (ty.bits + 7) // 8)
    if isinstance(ty, FloatType):
        return ty.bits // 8
    if isinstance(ty, PointerType):
        return 8
    if isinstance(ty, ArrayType):
        return ty.count * sizeof(ty.element)
    raise TypeError(f"type {ty} has no size")


# Canonical singletons used throughout the code base.
VOID = VoidType()
BOOL = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)
