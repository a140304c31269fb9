"""AST → IR lowering with on-the-fly SSA construction.

Scalars are lowered straight into SSA form using the algorithm of Braun et
al. ("Simple and Efficient Construction of Static Single Assignment Form",
CC 2013): per-block variable definition maps, incomplete phis for unsealed
blocks, and trivial-phi elimination.  Arrays and pointer parameters stay in
memory and are accessed through GEP/load/store, which is exactly what the
data-access analyses and the accelerator model want to see.

Statement labels (``linear: for (...)``) become block-name prefixes so that
wPST regions inherit human-readable names, mirroring Fig. 2 of the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import (
    ArrayType,
    BOOL,
    BasicBlock,
    Constant,
    F32,
    F64,
    FloatType,
    Function,
    I32,
    I64,
    IRBuilder,
    IntType,
    Module,
    Phi,
    PointerType,
    Type,
    VOID,
    Value,
)
from . import ast_nodes as ast
from .errors import SemanticError
from .parser import parse

_BASE_TYPES = {
    "int": I32,
    "long": I64,
    "float": F32,
    "double": F64,
    "void": VOID,
}

_INT_BINOPS = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
    "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
}
_FLOAT_BINOPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}
_ICMP_OPS = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}
_FCMP_OPS = {"==": "oeq", "!=": "one", "<": "olt", "<=": "ole", ">": "ogt", ">=": "oge"}


def resolve_type(spec: ast.TypeSpec) -> Type:
    """Resolve a :class:`~repro.frontend.ast_nodes.TypeSpec` to an IR type."""
    try:
        ty: Type = _BASE_TYPES[spec.base]
    except KeyError:
        raise SemanticError(f"unknown type {spec.base!r}", spec.location) from None
    for dim in reversed(spec.array_dims):
        ty = ArrayType(ty, dim)
    for _ in range(spec.pointer_depth):
        ty = PointerType(ty)
    return ty


def resolve_param_type(spec: ast.TypeSpec) -> Type:
    """Resolve a parameter type with C array-decay semantics.

    ``float A[N][M]`` decays to a pointer to ``[M x float]``; the outermost
    dimension is dropped.
    """
    if spec.array_dims:
        inner = ast.TypeSpec(spec.base, spec.array_dims[1:], spec.pointer_depth)
        return PointerType(resolve_type(inner))
    return resolve_type(spec)


_variable_serial = [0]


class _Variable:
    """A named entity in scope: an SSA scalar or an in-memory object."""

    __slots__ = ("name", "type", "kind", "address", "key")

    def __init__(self, name: str, ty: Type, kind: str, address: Optional[Value] = None):
        self.name = name
        self.type = ty            # scalar type for "ssa"; object type for memory kinds
        self.kind = kind          # "ssa" | "object" | "decayed" | "scalar_global"
        self.address = address    # pointer Value for memory kinds
        # Unique SSA-map key: shadowed declarations of the same name must
        # not share definition slots.
        _variable_serial[0] += 1
        self.key = f"{name}#{_variable_serial[0]}"


class _LoopContext:
    """Targets for ``break``/``continue`` inside a loop."""

    __slots__ = ("break_target", "continue_target")

    def __init__(self, break_target: BasicBlock, continue_target: BasicBlock):
        self.break_target = break_target
        self.continue_target = continue_target


class FunctionLowering:
    """Lowers one :class:`~repro.frontend.ast_nodes.FunctionDef` to IR."""

    def __init__(self, module: Module, func: Function, func_def: ast.FunctionDef):
        self.module = module
        self.func = func
        self.func_def = func_def
        self.builder = IRBuilder()
        # Braun SSA state.
        self.current_defs: Dict[str, Dict[BasicBlock, Value]] = {}
        #: Each sealed block's predecessors, recorded when it is sealed:
        #: no edge into a block is added after that.
        self.sealed_preds: Dict[BasicBlock, List[BasicBlock]] = {}
        self.incomplete_phis: Dict[BasicBlock, Dict[str, Phi]] = {}
        # Scoping.
        self.scopes: List[Dict[str, _Variable]] = [{}]
        self.loop_stack: List[_LoopContext] = []

    # ------------------------------------------------------------------ scopes

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, var: _Variable, location=None) -> None:
        scope = self.scopes[-1]
        if var.name in scope:
            raise SemanticError(f"redeclaration of {var.name!r}", location)
        scope[var.name] = var

    def lookup(self, name: str, location=None) -> _Variable:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.module.globals:
            var = self.module.get_global(name)
            if var.allocated_type.is_scalar:
                # Scalar globals are accessed through memory (no cross-function
                # SSA); treat them as single-element objects.
                return _Variable(name, var.allocated_type, "scalar_global", var)
            return _Variable(name, var.allocated_type, "object", var)
        raise SemanticError(f"use of undeclared name {name!r}", location)

    # --------------------------------------------------------------- SSA (Braun)

    def write_variable(self, name: str, block: BasicBlock, value: Value) -> None:
        self.current_defs.setdefault(name, {})[block] = value

    def read_variable(self, name: str, block: BasicBlock, ty: Type) -> Value:
        defs = self.current_defs.setdefault(name, {})
        if block in defs:
            return defs[block]
        return self._read_variable_recursive(name, block, ty)

    def _read_variable_recursive(self, name: str, block: BasicBlock, ty: Type) -> Value:
        preds = self.sealed_preds.get(block)
        display = name.split("#")[0]
        if preds is None:
            phi = Phi(ty, display)
            block.insert_front(phi)
            self.incomplete_phis.setdefault(block, {})[name] = phi
            value: Value = phi
        elif len(preds) == 1:
            value = self.read_variable(name, preds[0], ty)
        elif not preds:
            # Read before any write on the entry path: default-initialize.
            value = _zero_constant(ty)
        else:
            phi = Phi(ty, display)
            block.insert_front(phi)
            self.write_variable(name, block, phi)
            value = self._add_phi_operands(name, phi, preds, ty)
        self.write_variable(name, block, value)
        return value

    def _add_phi_operands(
        self, name: str, phi: Phi, preds: List[BasicBlock], ty: Type
    ) -> Value:
        for pred in preds:
            phi.add_incoming(self.read_variable(name, pred, ty), pred)
        return self._try_remove_trivial_phi(phi)

    def _try_remove_trivial_phi(self, phi: Phi) -> Value:
        same: Optional[Value] = None
        for operand in phi.operands:
            if operand is phi or operand is same:
                continue
            if same is not None:
                return phi  # non-trivial: merges at least two values
            same = operand
        if same is None:
            same = _zero_constant(phi.type)
        phi_users = [u for u in phi.users if u is not phi and isinstance(u, Phi)]
        phi.replace_all_uses_with(same)
        # Patch SSA maps that may still point at the removed phi.
        for block_map in self.current_defs.values():
            for block, value in list(block_map.items()):
                if value is phi:
                    block_map[block] = same
        phi.erase()
        for user in phi_users:
            self._try_remove_trivial_phi(user)
        return same

    def seal_block(self, block: BasicBlock) -> None:
        preds = block.predecessors
        for name, phi in self.incomplete_phis.pop(block, {}).items():
            self._add_phi_operands(name, phi, preds, phi.type)
        self.sealed_preds[block] = preds

    # ------------------------------------------------------------------- driver

    def lower(self) -> None:
        entry = self.func.add_block("entry")
        self.builder.position_at_end(entry)
        self.seal_block(entry)

        for arg, param in zip(self.func.arguments, self.func_def.params):
            if arg.type.is_pointer:
                var = _Variable(param.name, arg.type, "decayed", address=arg)
            else:
                var = _Variable(param.name, arg.type, "ssa")
                self.write_variable(var.key, entry, arg)
            self.declare(var, param.location)

        self.lower_statement(self.func_def.body)

        block = self.builder.block
        if block is not None and not block.is_terminated:
            if self.func.return_type.is_void:
                self.builder.ret()
            else:
                self.builder.ret(_zero_constant(self.func.return_type))
        self._prune_unreachable()

    def _prune_unreachable(self) -> None:
        """Drop blocks that lowering created but never made reachable."""
        reachable = set()
        stack = [self.func.entry]
        while stack:
            block = stack.pop()
            if block in reachable:
                continue
            reachable.add(block)
            stack.extend(block.successors)
        for block in [b for b in self.func.blocks if b not in reachable]:
            for succ in block.successors:
                for phi in succ.phis():
                    if block in phi.incoming_blocks:
                        phi.remove_incoming(block)
            for inst in list(block.instructions):
                inst.drop_operands()
            self.func.remove_block(block)

    # --------------------------------------------------------------- statements

    def lower_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.BlockStmt):
            self.push_scope()
            for sub in stmt.statements:
                self.lower_statement(sub)
                if self.builder.block is not None and self.builder.block.is_terminated:
                    break
            self.pop_scope()
        elif isinstance(stmt, ast.DeclStmt):
            self._lower_decl(stmt)
        elif isinstance(stmt, ast.AssignStmt):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expression(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.BreakStmt):
            if not self.loop_stack:
                raise SemanticError("break outside of loop", stmt.location)
            self.builder.br(self.loop_stack[-1].break_target)
        elif isinstance(stmt, ast.ContinueStmt):
            if not self.loop_stack:
                raise SemanticError("continue outside of loop", stmt.location)
            self.builder.br(self.loop_stack[-1].continue_target)
        else:
            raise SemanticError(f"unsupported statement {type(stmt).__name__}", stmt.location)

    def _lower_decl(self, stmt: ast.DeclStmt) -> None:
        ty = resolve_type(stmt.type_spec)
        if ty.is_array:
            address = self.builder.alloca(ty, stmt.name)
            self.declare(_Variable(stmt.name, ty, "object", address), stmt.location)
            if stmt.init is not None:
                raise SemanticError("array initializers are not supported", stmt.location)
            return
        if not ty.is_scalar and not ty.is_pointer:
            raise SemanticError(f"cannot declare variable of type {ty}", stmt.location)
        var = _Variable(stmt.name, ty, "ssa")
        self.declare(var, stmt.location)
        init = (
            self.convert(self.lower_expression(stmt.init), ty, stmt.location)
            if stmt.init is not None
            else _zero_constant(ty)
        )
        self.write_variable(var.key, self.builder.block, init)

    def _lower_assign(self, stmt: ast.AssignStmt) -> None:
        target = stmt.target
        if isinstance(target, ast.NameRef):
            var = self.lookup(target.name, target.location)
            if var.kind == "scalar_global":
                value = self._apply_compound(
                    stmt, lambda: self.builder.load(var.address)
                )
                value = self.convert(value, var.type, stmt.location)
                self.builder.store(value, var.address)
                return
            if var.kind != "ssa":
                raise SemanticError(
                    f"cannot assign to array {target.name!r}", target.location
                )
            value = self._apply_compound(stmt, lambda: self.read_variable(
                var.key, self.builder.block, var.type))
            value = self.convert(value, var.type, stmt.location)
            self.write_variable(var.key, self.builder.block, value)
            return
        if isinstance(target, ast.Index):
            address = self.lower_address(target)
            pointee = address.type.pointee
            value = self._apply_compound(stmt, lambda: self.builder.load(address))
            value = self.convert(value, pointee, stmt.location)
            self.builder.store(value, address)
            return
        raise SemanticError("invalid assignment target", stmt.location)

    def _apply_compound(self, stmt: ast.AssignStmt, read_old) -> Value:
        value = self.lower_expression(stmt.value)
        if not stmt.op:
            return value
        old = read_old()
        return self.binary_op(stmt.op, old, value, stmt.location)

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        prefix = stmt.label or "if"
        then_block = self.func.add_block(f"{prefix}.then")
        merge_block = self.func.add_block(f"{prefix}.end")
        else_block = (
            self.func.add_block(f"{prefix}.else") if stmt.else_body else merge_block
        )

        cond = self.lower_condition(stmt.cond)
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.position_at_end(then_block)
        self.seal_block(then_block)
        self.lower_statement(stmt.then_body)
        if not self.builder.block.is_terminated:
            self.builder.br(merge_block)

        if stmt.else_body is not None:
            self.builder.position_at_end(else_block)
            self.seal_block(else_block)
            self.lower_statement(stmt.else_body)
            if not self.builder.block.is_terminated:
                self.builder.br(merge_block)

        self.builder.position_at_end(merge_block)
        self.seal_block(merge_block)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        prefix = stmt.label or "while"
        header = self.func.add_block(f"{prefix}.header")
        body = self.func.add_block(f"{prefix}.body")
        exit_block = self.func.add_block(f"{prefix}.exit")

        self.builder.br(header)
        self.builder.position_at_end(header)
        cond = self.lower_condition(stmt.cond)
        self.builder.cond_br(cond, body, exit_block)

        self.builder.position_at_end(body)
        self.seal_block(body)
        self.loop_stack.append(_LoopContext(exit_block, header))
        self.lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(header)
        self.seal_block(header)

        self.builder.position_at_end(exit_block)
        self.seal_block(exit_block)

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        prefix = stmt.label or "for"
        self.push_scope()
        if stmt.init is not None:
            self.lower_statement(stmt.init)

        header = self.func.add_block(f"{prefix}.header")
        body = self.func.add_block(f"{prefix}.body")
        step_block = self.func.add_block(f"{prefix}.step")
        exit_block = self.func.add_block(f"{prefix}.exit")

        self.builder.br(header)
        self.builder.position_at_end(header)
        if stmt.cond is not None:
            cond = self.lower_condition(stmt.cond)
            self.builder.cond_br(cond, body, exit_block)
        else:
            self.builder.br(body)

        self.builder.position_at_end(body)
        self.seal_block(body)
        self.loop_stack.append(_LoopContext(exit_block, step_block))
        self.lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(step_block)

        self.builder.position_at_end(step_block)
        self.seal_block(step_block)
        if stmt.step is not None:
            self.lower_statement(stmt.step)
        if not self.builder.block.is_terminated:
            self.builder.br(header)
        self.seal_block(header)

        self.builder.position_at_end(exit_block)
        self.seal_block(exit_block)
        self.pop_scope()

    def _lower_return(self, stmt: ast.ReturnStmt) -> None:
        if self.func.return_type.is_void:
            if stmt.value is not None:
                raise SemanticError("void function cannot return a value", stmt.location)
            self.builder.ret()
            return
        if stmt.value is None:
            raise SemanticError("non-void function must return a value", stmt.location)
        value = self.convert(
            self.lower_expression(stmt.value), self.func.return_type, stmt.location
        )
        self.builder.ret(value)

    # -------------------------------------------------------------- expressions

    def lower_expression(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLiteral):
            # C types a decimal literal as the first of int and long that
            # holds it.
            ty = I32 if expr.value < (1 << 31) else I64
            return Constant(ty, _wrap_int(expr.value, ty.bits))
        if isinstance(expr, ast.FloatLiteral):
            return Constant(F64, expr.value)
        if isinstance(expr, ast.NameRef):
            var = self.lookup(expr.name, expr.location)
            if var.kind == "ssa":
                return self.read_variable(var.key, self.builder.block, var.type)
            if var.kind == "scalar_global":
                return self.builder.load(var.address)
            return self._decay(var)
        if isinstance(expr, ast.Index):
            address = self.lower_address(expr)
            if address.type.pointee.is_array:
                return address  # partial indexing yields a sub-array pointer
            return self.builder.load(address)
        if isinstance(expr, ast.UnaryExpr):
            return self._lower_unary(expr)
        if isinstance(expr, ast.BinaryExpr):
            return self._lower_binary(expr)
        if isinstance(expr, ast.ConditionalExpr):
            return self._lower_conditional(expr)
        if isinstance(expr, ast.CastExpr):
            value = self.lower_expression(expr.operand)
            return self.convert(value, resolve_type(expr.target), expr.location)
        if isinstance(expr, ast.CallExpr):
            return self._lower_call(expr)
        raise SemanticError(f"unsupported expression {type(expr).__name__}", expr.location)

    def _decay(self, var: _Variable) -> Value:
        """Decay an array object to a pointer to its first element row."""
        if var.kind == "decayed":
            return var.address
        zero = Constant(I32, 0)
        return self.builder.gep(var.address, [zero, zero])

    def lower_address(self, expr: ast.Index) -> Value:
        """Lower a subscript chain to a GEP yielding the element address."""
        indices: List[ast.Expr] = []
        base = expr
        while isinstance(base, ast.Index):
            indices.append(base.index)
            base = base.base
        indices.reverse()
        if not isinstance(base, ast.NameRef):
            raise SemanticError("subscript base must be a name", expr.location)
        var = self.lookup(base.name, base.location)
        index_values = [
            self._as_index(self.lower_expression(idx), expr.location) for idx in indices
        ]
        if var.kind == "ssa":
            raise SemanticError(f"{base.name!r} is not an array", base.location)
        if var.kind == "object":
            gep_indices = [Constant(I32, 0), *index_values]
        else:  # decayed pointer parameter: the first subscript is the gep offset
            gep_indices = index_values
        return self.builder.gep(var.address, gep_indices)

    def _as_index(self, value: Value, location) -> Value:
        if not value.type.is_int:
            raise SemanticError("array index must be an integer", location)
        return value

    def _lower_unary(self, expr: ast.UnaryExpr) -> Value:
        operand = self.lower_expression(expr.operand)
        if expr.op == "-":
            if operand.type.is_float:
                return self.builder.fneg(operand)
            operand = self._widen_bool(operand)
            return self.builder.neg(operand)
        if expr.op == "!":
            cond = self._to_bool(operand, expr.location)
            return self.builder.xor(cond, Constant(BOOL, 1))
        if expr.op == "~":
            operand = self._widen_bool(operand)
            return self.builder.not_(operand)
        raise SemanticError(f"unsupported unary operator {expr.op!r}", expr.location)

    def _lower_binary(self, expr: ast.BinaryExpr) -> Value:
        if expr.op in ("&&", "||"):
            return self._lower_short_circuit(expr)
        lhs = self.lower_expression(expr.lhs)
        rhs = self.lower_expression(expr.rhs)
        return self.binary_op(expr.op, lhs, rhs, expr.location)

    def binary_op(self, op: str, lhs: Value, rhs: Value, location) -> Value:
        lhs, rhs = self._unify(lhs, rhs, location)
        if op in _ICMP_OPS:
            if lhs.type.is_float:
                return self.builder.fcmp(_FCMP_OPS[op], lhs, rhs)
            return self.builder.icmp(_ICMP_OPS[op], lhs, rhs)
        if lhs.type.is_float:
            if op not in _FLOAT_BINOPS:
                raise SemanticError(
                    f"operator {op!r} not supported on floats", location
                )
            return self.builder._binop(_FLOAT_BINOPS[op], lhs, rhs, "")
        if op not in _INT_BINOPS:
            raise SemanticError(f"unsupported binary operator {op!r}", location)
        return self.builder._binop(_INT_BINOPS[op], lhs, rhs, "")

    def _lower_short_circuit(self, expr: ast.BinaryExpr) -> Value:
        """Lower ``&&``/``||`` with proper short-circuit control flow."""
        is_and = expr.op == "&&"
        prefix = "land" if is_and else "lor"
        rhs_block = self.func.add_block(f"{prefix}.rhs")
        merge_block = self.func.add_block(f"{prefix}.end")

        lhs_cond = self.lower_condition(expr.lhs)
        lhs_block = self.builder.block
        if is_and:
            self.builder.cond_br(lhs_cond, rhs_block, merge_block)
        else:
            self.builder.cond_br(lhs_cond, merge_block, rhs_block)

        self.builder.position_at_end(rhs_block)
        self.seal_block(rhs_block)
        rhs_cond = self.lower_condition(expr.rhs)
        rhs_end = self.builder.block
        self.builder.br(merge_block)

        self.builder.position_at_end(merge_block)
        self.seal_block(merge_block)
        phi = self.builder.phi(BOOL, prefix)
        phi.add_incoming(Constant(BOOL, 0 if is_and else 1), lhs_block)
        phi.add_incoming(rhs_cond, rhs_end)
        return phi

    def _lower_conditional(self, expr: ast.ConditionalExpr) -> Value:
        cond = self.lower_condition(expr.cond)
        true_value = self.lower_expression(expr.true_expr)
        false_value = self.lower_expression(expr.false_expr)
        true_value, false_value = self._unify(true_value, false_value, expr.location)
        return self.builder.select(cond, true_value, false_value)

    _BUILTIN_UNARY = {
        "sqrt": "fsqrt", "sqrtf": "fsqrt",
        "fabs": "fabs", "fabsf": "fabs",
    }

    def _lower_call(self, expr: ast.CallExpr) -> Value:
        builtin = self._BUILTIN_UNARY.get(expr.name)
        if builtin is not None and expr.name not in self.module.functions:
            if len(expr.args) != 1:
                raise SemanticError(
                    f"{expr.name} expects 1 argument", expr.location
                )
            operand = self.lower_expression(expr.args[0])
            if operand.type.is_int:
                operand = self.convert(operand, F32, expr.location)
            from ..ir import UnaryOp
            inst = UnaryOp(builtin, operand)
            self.builder.block.append(inst)
            return inst

        try:
            callee = self.module.get_function(expr.name)
        except KeyError:
            raise SemanticError(
                f"call to undeclared function {expr.name!r}", expr.location
            ) from None
        expected = callee.type.param_types
        if len(expr.args) != len(expected):
            raise SemanticError(
                f"{expr.name} expects {len(expected)} arguments, got {len(expr.args)}",
                expr.location,
            )
        args = []
        for arg_expr, ty in zip(expr.args, expected):
            value = self.lower_expression(arg_expr)
            args.append(self.convert(value, ty, expr.location))
        return self.builder.call(callee, args)

    # -------------------------------------------------------------- conversions

    def lower_condition(self, expr: ast.Expr) -> Value:
        return self._to_bool(self.lower_expression(expr), expr.location)

    def _to_bool(self, value: Value, location) -> Value:
        if value.type.is_bool:
            return value
        if value.type.is_int:
            return self.builder.icmp("ne", value, Constant(value.type, 0))
        if value.type.is_float:
            return self.builder.fcmp("one", value, Constant(value.type, 0.0))
        raise SemanticError(f"cannot use {value.type} as a condition", location)

    def _widen_bool(self, value: Value) -> Value:
        if value.type.is_bool:
            return self.builder.cast("zext", value, I32)
        return value

    def _unify(self, lhs: Value, rhs: Value, location) -> Tuple[Value, Value]:
        lhs = self._widen_bool(lhs)
        rhs = self._widen_bool(rhs)
        if lhs.type == rhs.type:
            return lhs, rhs
        if lhs.type.is_float or rhs.type.is_float:
            bits = max(
                lhs.type.bits if lhs.type.is_float else 0,
                rhs.type.bits if rhs.type.is_float else 0,
            )
            target: Type = FloatType(max(bits, 32))
        else:
            target = IntType(max(lhs.type.bits, rhs.type.bits))
        return (
            self.convert(lhs, target, location),
            self.convert(rhs, target, location),
        )

    def convert(self, value: Value, target: Type, location) -> Value:
        """Insert the conversion from ``value.type`` to ``target`` (or no-op)."""
        src = value.type
        if src == target:
            return value
        if isinstance(value, Constant) and target.is_scalar:
            if target.is_int and target.bits > 1:
                # As the trunc, sext or fptosi it stands for would at run
                # time.
                return Constant(
                    target, _wrap_int(int(value.value), target.bits)
                )
            return Constant(target, value.value)
        if src.is_int and target.is_int:
            if target.bits > src.bits:
                return self.builder.cast("sext", value, target)
            return self.builder.cast("trunc", value, target)
        if src.is_int and target.is_float:
            return self.builder.cast("sitofp", value, target)
        if src.is_float and target.is_int:
            return self.builder.cast("fptosi", value, target)
        if src.is_float and target.is_float:
            opcode = "fpext" if target.bits > src.bits else "fptrunc"
            return self.builder.cast(opcode, value, target)
        if src.is_pointer and target.is_pointer:
            if src == target:
                return value
        raise SemanticError(f"cannot convert {src} to {target}", location)


def _wrap_int(value: int, bits: int) -> int:
    """``value`` in the signed range of ``bits`` bits, wrapped as two's
    complement."""
    sign = 1 << (bits - 1)
    return ((value + sign) & ((sign << 1) - 1)) - sign


def _zero_constant(ty: Type) -> Value:
    if ty.is_int:
        return Constant(ty, 0)
    if ty.is_float:
        return Constant(ty, 0.0)
    raise SemanticError(f"no default value for type {ty}")


def lower_program(program: ast.Program, name: str = "module") -> Module:
    """Lower a parsed program to an IR module."""
    module = Module(name)
    for decl in program.globals:
        ty = resolve_type(decl.type_spec)
        module.add_global(decl.name, ty)
    # Two passes so functions can call others defined later in the file.
    for func_def in program.functions:
        module.add_function(
            func_def.name,
            resolve_type(func_def.return_type),
            [resolve_param_type(p.type_spec) for p in func_def.params],
            [p.name for p in func_def.params],
        )
    for func_def in program.functions:
        lowering = FunctionLowering(module, module.get_function(func_def.name), func_def)
        lowering.lower()
    return module


def compile_source(source: str, name: str = "module", optimize: bool = True) -> Module:
    """Front door of the frontend: mini-C source text → verified IR module.

    ``optimize`` runs the standard pass pipeline (accumulator promotion,
    DCE) — the paper compiles all applications with ``-O3`` (§IV-A).
    """
    from ..ir import verify_module

    from ..telemetry import current as current_telemetry

    tele = current_telemetry()
    tele.count("frontend.compiles")
    with tele.span("frontend.parse"):
        program = parse(source)
    with tele.span("frontend.lower"):
        module = lower_program(program, name)
        verify_module(module)
    if optimize:
        from ..opt import optimize_module

        optimize_module(module)
    return module
