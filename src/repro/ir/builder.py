"""Convenience builder for constructing IR imperatively.

The builder keeps an insertion point (a basic block) and offers one method per
instruction, returning the created instruction so chains read naturally::

    b = IRBuilder(func.add_block("entry"))
    x = b.add(b.const_i32(1), b.const_i32(2))
    b.ret(x)
"""

from __future__ import annotations

from typing import Optional, Sequence

from .function import BasicBlock, Function
from .instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    FCmp,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
    Return,
    Select,
    Store,
    UnaryOp,
)
from .types import I32, Type
from .values import Constant, Value


class IRBuilder:
    """Stateful instruction factory anchored at a basic block."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    def _insert(self, inst):
        if self.block is None:
            raise ValueError("builder has no insertion block")
        return self.block.append(inst)

    # Constants ------------------------------------------------------------------

    @staticmethod
    def const_i32(value: int) -> Constant:
        return Constant(I32, value)

    # Arithmetic -------------------------------------------------------------------

    def _binop(self, opcode: str, lhs: Value, rhs: Value, name: str) -> BinaryOp:
        return self._insert(BinaryOp(opcode, lhs, rhs, name))

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("mul", lhs, rhs, name)

    def div(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("div", lhs, rhs, name)

    def rem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("rem", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("shl", lhs, rhs, name)

    def shr(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("shr", lhs, rhs, name)

    def fadd(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("fadd", lhs, rhs, name)

    def fsub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("fsub", lhs, rhs, name)

    def fmul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("fmul", lhs, rhs, name)

    def fdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._binop("fdiv", lhs, rhs, name)

    def fneg(self, operand: Value, name: str = "") -> UnaryOp:
        return self._insert(UnaryOp("fneg", operand, name))

    def neg(self, operand: Value, name: str = "") -> UnaryOp:
        return self._insert(UnaryOp("neg", operand, name))

    def not_(self, operand: Value, name: str = "") -> UnaryOp:
        return self._insert(UnaryOp("not", operand, name))

    def fsqrt(self, operand: Value, name: str = "") -> UnaryOp:
        return self._insert(UnaryOp("fsqrt", operand, name))

    def fabs(self, operand: Value, name: str = "") -> UnaryOp:
        return self._insert(UnaryOp("fabs", operand, name))

    # Comparisons ---------------------------------------------------------------------

    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> ICmp:
        return self._insert(ICmp(predicate, lhs, rhs, name))

    def fcmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> FCmp:
        return self._insert(FCmp(predicate, lhs, rhs, name))

    def select(
        self, cond: Value, true_value: Value, false_value: Value, name: str = ""
    ) -> Select:
        return self._insert(Select(cond, true_value, false_value, name))

    # Casts ------------------------------------------------------------------------------

    def cast(self, opcode: str, operand: Value, target: Type, name: str = "") -> Cast:
        return self._insert(Cast(opcode, operand, target, name))

    def sitofp(self, operand: Value, target: Type, name: str = "") -> Cast:
        return self.cast("sitofp", operand, target, name)

    def fptosi(self, operand: Value, target: Type, name: str = "") -> Cast:
        return self.cast("fptosi", operand, target, name)

    def sext(self, operand: Value, target: Type, name: str = "") -> Cast:
        return self.cast("sext", operand, target, name)

    def trunc(self, operand: Value, target: Type, name: str = "") -> Cast:
        return self.cast("trunc", operand, target, name)

    # Memory --------------------------------------------------------------------------------

    def alloca(self, allocated_type: Type, name: str = "") -> Alloca:
        return self._insert(Alloca(allocated_type, name))

    def load(self, pointer: Value, name: str = "") -> Load:
        return self._insert(Load(pointer, name))

    def store(self, value: Value, pointer: Value) -> Store:
        return self._insert(Store(value, pointer))

    def gep(self, base: Value, indices: Sequence[Value], name: str = "") -> GetElementPtr:
        return self._insert(GetElementPtr(base, list(indices), name))

    # Control flow ----------------------------------------------------------------------------

    def br(self, target: BasicBlock) -> Branch:
        return self._insert(Branch(target))

    def cond_br(
        self, cond: Value, true_target: BasicBlock, false_target: BasicBlock
    ) -> CondBranch:
        return self._insert(CondBranch(cond, true_target, false_target))

    def ret(self, value: Optional[Value] = None) -> Return:
        return self._insert(Return(value))

    def phi(self, ty: Type, name: str = "") -> Phi:
        """Create a phi at the *front* of the current block."""
        if self.block is None:
            raise ValueError("builder has no insertion block")
        node = Phi(ty, name)
        return self.block.insert_front(node)

    def call(self, callee: Function, args: Sequence[Value], name: str = "") -> Call:
        return self._insert(Call(callee, list(args), name))
