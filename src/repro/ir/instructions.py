"""Instruction set of the repro IR.

The instruction set mirrors the subset of LLVM IR that Cayman's analyses and
the HLS substrate consume: integer/float arithmetic, comparisons, select,
casts, stack allocation, typed address arithmetic (GEP), loads/stores,
branches, phi nodes, calls, and returns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .types import (
    ArrayType,
    BOOL,
    PointerType,
    Type,
    VOID,
)
from .values import Value

if TYPE_CHECKING:  # pragma: no cover
    from .function import BasicBlock, Function


# Opcode groups used by analyses and the tech library.
INT_BINARY_OPS = ("add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr")
FLOAT_BINARY_OPS = ("fadd", "fsub", "fmul", "fdiv")
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")
CAST_OPS = ("sitofp", "fptosi", "sext", "zext", "trunc", "fpext", "fptrunc")


class Instruction(Value):
    """Base class for IR instructions.

    An instruction is itself a :class:`Value` (its result).  Operands are
    stored positionally and tracked through def-use chains.
    """

    opcode: str = "?"
    #: Whether the instruction ends its block (``br``, ``condbr``, ``ret``).
    is_terminator: bool = False

    def __init__(self, ty: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(ty, name)
        self.operands: List[Value] = []
        self.parent: Optional["BasicBlock"] = None
        for op in operands:
            self._append_operand(op)

    # Operand management ------------------------------------------------------

    def _append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise TypeError(f"operand must be a Value, got {value!r}")
        self.operands.append(value)
        value.add_user(self)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        old.remove_user(self)
        self.operands[index] = value
        value.add_user(self)

    def replace_operand(self, old: Value, new: Value) -> None:
        for i, op in enumerate(self.operands):
            if op is old:
                self.set_operand(i, new)

    def drop_operands(self) -> None:
        for op in self.operands:
            op.remove_user(self)
        self.operands = []

    # Structure helpers --------------------------------------------------------

    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    @property
    def is_memory_access(self) -> bool:
        return isinstance(self, (Load, Store))

    @property
    def has_side_effects(self) -> bool:
        return isinstance(self, (Store, Call)) or self.is_terminator

    def erase(self) -> None:
        """Remove this instruction from its parent block and drop operands."""
        if self.parent is not None:
            self.parent.instructions.remove(self)
            self.parent = None
        self.drop_operands()

    def operand_str(self) -> str:
        return ", ".join(op.ref for op in self.operands)

    def __str__(self) -> str:
        if self.type.is_void:
            return f"{self.opcode} {self.operand_str()}"
        return f"%{self.name} = {self.opcode} {self.type} {self.operand_str()}"


class BinaryOp(Instruction):
    """Integer or floating-point binary arithmetic/logical operation."""

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode in INT_BINARY_OPS:
            if not lhs.type.is_int:
                raise TypeError(f"{opcode} requires integer operands, got {lhs.type}")
        elif opcode in FLOAT_BINARY_OPS:
            if not lhs.type.is_float:
                raise TypeError(f"{opcode} requires float operands, got {lhs.type}")
        else:
            raise ValueError(f"unknown binary opcode {opcode!r}")
        if lhs.type != rhs.type:
            raise TypeError(f"{opcode} operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = opcode

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class UnaryOp(Instruction):
    """Unary operation: ``fneg``/``fsqrt``/``fabs`` on floats, ``neg``/``not``
    on integers.  ``fsqrt`` and ``fabs`` are the math intrinsics the
    benchmark kernels need (sqrtf/fabsf in C)."""

    def __init__(self, opcode: str, operand: Value, name: str = ""):
        if opcode in ("fneg", "fsqrt", "fabs") and not operand.type.is_float:
            raise TypeError(f"{opcode} requires a float operand")
        if opcode in ("neg", "not") and not operand.type.is_int:
            raise TypeError(f"{opcode} requires an integer operand")
        if opcode not in ("fneg", "fsqrt", "fabs", "neg", "not"):
            raise ValueError(f"unknown unary opcode {opcode!r}")
        super().__init__(operand.type, [operand], name)
        self.opcode = opcode


class ICmp(Instruction):
    """Signed integer comparison producing an ``i1``."""

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        if not (lhs.type.is_int or lhs.type.is_pointer):
            raise TypeError(f"icmp requires int/pointer operands, got {lhs.type}")
        if lhs.type != rhs.type:
            raise TypeError(f"icmp operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(BOOL, [lhs, rhs], name)
        self.predicate = predicate

    def __str__(self) -> str:
        return (
            f"%{self.name} = icmp {self.predicate} "
            f"{self.operands[0].type} {self.operand_str()}"
        )


class FCmp(Instruction):
    """Ordered floating-point comparison producing an ``i1``."""

    opcode = "fcmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate {predicate!r}")
        if not lhs.type.is_float or lhs.type != rhs.type:
            raise TypeError("fcmp requires matching float operands")
        super().__init__(BOOL, [lhs, rhs], name)
        self.predicate = predicate

    def __str__(self) -> str:
        return (
            f"%{self.name} = fcmp {self.predicate} "
            f"{self.operands[0].type} {self.operand_str()}"
        )


class Select(Instruction):
    """``select cond, a, b`` — conditional move."""

    opcode = "select"

    def __init__(self, cond: Value, true_value: Value, false_value: Value, name: str = ""):
        if not cond.type.is_bool:
            raise TypeError("select condition must be i1")
        if true_value.type != false_value.type:
            raise TypeError("select arms must have matching types")
        super().__init__(true_value.type, [cond, true_value, false_value], name)

    @property
    def condition(self) -> Value:
        return self.operands[0]


class Cast(Instruction):
    """Type conversion between scalar types."""

    def __init__(self, opcode: str, operand: Value, target: Type, name: str = ""):
        if opcode not in CAST_OPS:
            raise ValueError(f"unknown cast opcode {opcode!r}")
        checks = {
            "sitofp": (operand.type.is_int, target.is_float),
            "fptosi": (operand.type.is_float, target.is_int),
            "sext": (operand.type.is_int, target.is_int),
            "zext": (operand.type.is_int, target.is_int),
            "trunc": (operand.type.is_int, target.is_int),
            "fpext": (operand.type.is_float, target.is_float),
            "fptrunc": (operand.type.is_float, target.is_float),
        }
        src_ok, dst_ok = checks[opcode]
        if not (src_ok and dst_ok):
            raise TypeError(f"{opcode}: invalid conversion {operand.type} -> {target}")
        super().__init__(target, [operand], name)
        self.opcode = opcode


class Alloca(Instruction):
    """Stack allocation; yields a pointer to ``allocated_type``."""

    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = ""):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type

    def __str__(self) -> str:
        return f"%{self.name} = alloca {self.allocated_type}"


class Load(Instruction):
    """Memory load through a pointer operand."""

    opcode = "load"

    def __init__(self, pointer: Value, name: str = ""):
        if not pointer.type.is_pointer:
            raise TypeError(f"load requires a pointer operand, got {pointer.type}")
        pointee = pointer.type.pointee
        if not pointee.is_scalar and not pointee.is_pointer:
            raise TypeError(f"can only load scalar/pointer values, got {pointee}")
        super().__init__(pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    """Memory store of ``value`` through ``pointer``."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        if not pointer.type.is_pointer:
            raise TypeError(f"store requires a pointer operand, got {pointer.type}")
        if pointer.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: {value.type} into {pointer.type}"
            )
        super().__init__(VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class GetElementPtr(Instruction):
    """Typed address arithmetic (a simplified LLVM GEP).

    ``gep base, i0, i1, ...`` walks array nesting: the first index scales by
    the full pointee size, and each further index descends one array level.
    """

    opcode = "gep"

    def __init__(self, base: Value, indices: Sequence[Value], name: str = ""):
        if not base.type.is_pointer:
            raise TypeError(f"gep base must be a pointer, got {base.type}")
        if not indices:
            raise ValueError("gep requires at least one index")
        for idx in indices:
            if not idx.type.is_int:
                raise TypeError(f"gep index must be an integer, got {idx.type}")
        result = self._result_type(base.type, len(indices))
        super().__init__(result, [base, *indices], name)

    @staticmethod
    def _result_type(base: PointerType, num_indices: int) -> PointerType:
        ty: Type = base.pointee
        for _ in range(num_indices - 1):
            if not isinstance(ty, ArrayType):
                raise TypeError(f"gep indexes too deep: {ty} is not an array")
            ty = ty.element
        return PointerType(ty)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]


class Phi(Instruction):
    """SSA phi node; incoming values are keyed by predecessor block."""

    opcode = "phi"

    def __init__(self, ty: Type, name: str = ""):
        super().__init__(ty, [], name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError(
                f"phi incoming type mismatch: {value.type} vs {self.type}"
            )
        self._append_operand(value)
        self.incoming_blocks.append(block)

    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming():
            if pred is block:
                return value
        raise KeyError(f"phi {self.ref} has no incoming value for {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                self.operands[i].remove_user(self)
                del self.operands[i]
                del self.incoming_blocks[i]
                return
        raise KeyError(f"phi {self.ref} has no incoming value for {block.name}")

    def replace_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        self.incoming_blocks = [new if b is old else b for b in self.incoming_blocks]

    def __str__(self) -> str:
        pairs = ", ".join(
            f"[{v.ref}, {b.name}]" for v, b in self.incoming()
        )
        return f"%{self.name} = phi {self.type} {pairs}"


class Branch(Instruction):
    """Unconditional branch."""

    opcode = "br"
    is_terminator = True

    def __init__(self, target: "BasicBlock"):
        super().__init__(VOID, [])
        self.target = target

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.target]

    def __str__(self) -> str:
        return f"br {self.target.name}"


class CondBranch(Instruction):
    """Two-way conditional branch."""

    opcode = "condbr"
    is_terminator = True

    def __init__(self, cond: Value, true_target: "BasicBlock", false_target: "BasicBlock"):
        if not cond.type.is_bool:
            raise TypeError("branch condition must be i1")
        super().__init__(VOID, [cond])
        self.true_target = true_target
        self.false_target = false_target

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.true_target, self.false_target]

    def __str__(self) -> str:
        return (
            f"condbr {self.condition.ref}, "
            f"{self.true_target.name}, {self.false_target.name}"
        )


class Return(Instruction):
    """Function return, optionally with a value."""

    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    @property
    def successors(self) -> List["BasicBlock"]:
        return []

    def __str__(self) -> str:
        return f"ret {self.value.ref}" if self.value is not None else "ret"


class Call(Instruction):
    """Direct call to another function in the module."""

    opcode = "call"

    def __init__(self, callee: "Function", args: Sequence[Value], name: str = ""):
        expected = callee.type.param_types
        if len(args) != len(expected):
            raise TypeError(
                f"call to {callee.name}: expected {len(expected)} args, got {len(args)}"
            )
        for i, (arg, ty) in enumerate(zip(args, expected)):
            if arg.type != ty:
                raise TypeError(
                    f"call to {callee.name}: arg {i} has type {arg.type}, expected {ty}"
                )
        super().__init__(callee.type.return_type, list(args), name)
        self.callee = callee

    def __str__(self) -> str:
        head = f"call @{self.callee.name}({self.operand_str()})"
        if self.type.is_void:
            return head
        return f"%{self.name} = {head}"


# Classification table shared by the tech library and the analyses:
# maps an instruction to the resource class the HLS substrate schedules it on.
def resource_class(inst: Instruction) -> str:
    """Resource class of an instruction for scheduling and area lookup."""
    if isinstance(inst, BinaryOp):
        return inst.opcode
    if isinstance(inst, UnaryOp):
        return inst.opcode
    if isinstance(inst, ICmp):
        return "icmp"
    if isinstance(inst, FCmp):
        return "fcmp"
    if isinstance(inst, Select):
        return "select"
    if isinstance(inst, Cast):
        return inst.opcode
    if isinstance(inst, Load):
        return "load"
    if isinstance(inst, Store):
        return "store"
    if isinstance(inst, GetElementPtr):
        return "gep"
    if isinstance(inst, Phi):
        return "phi"
    if isinstance(inst, (Branch, CondBranch, Return)):
        return "control"
    if isinstance(inst, Call):
        return "call"
    if isinstance(inst, Alloca):
        return "alloca"
    raise TypeError(f"unknown instruction {inst!r}")
