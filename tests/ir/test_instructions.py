"""Unit tests for IR instructions: typing rules, def-use, structure."""

import pytest

from repro.ir import (
    Alloca,
    ArrayType,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    Constant,
    F32,
    FCmp,
    GetElementPtr,
    I32,
    I64,
    ICmp,
    IRBuilder,
    Instruction,
    Load,
    Module,
    Phi,
    PointerType,
    Return,
    Select,
    Store,
    UnaryOp,
    VOID,
    resource_class,
)


def make_func(return_type=VOID, params=(), name="f"):
    module = Module("m")
    return module.add_function(name, return_type, list(params))


class TestBinaryOp:
    def test_int_add(self):
        op = BinaryOp("add", Constant(I32, 1), Constant(I32, 2))
        assert op.type == I32
        assert op.opcode == "add"

    def test_float_requires_float_opcode(self):
        with pytest.raises(TypeError):
            BinaryOp("add", Constant(F32, 1.0), Constant(F32, 2.0))
        with pytest.raises(TypeError):
            BinaryOp("fadd", Constant(I32, 1), Constant(I32, 2))

    def test_mismatched_widths_rejected(self):
        with pytest.raises(TypeError):
            BinaryOp("add", Constant(I32, 1), Constant(I64, 2))

    def test_unknown_opcode(self):
        with pytest.raises(ValueError):
            BinaryOp("bogus", Constant(I32, 1), Constant(I32, 2))


class TestUnaryOp:
    def test_fsqrt_requires_float(self):
        with pytest.raises(TypeError):
            UnaryOp("fsqrt", Constant(I32, 4))
        op = UnaryOp("fsqrt", Constant(F32, 4.0))
        assert op.type == F32

    def test_neg_requires_int(self):
        with pytest.raises(TypeError):
            UnaryOp("neg", Constant(F32, 1.0))


class TestComparisons:
    def test_icmp_yields_bool(self):
        cmp = ICmp("slt", Constant(I32, 1), Constant(I32, 2))
        assert cmp.type.is_bool

    def test_icmp_rejects_floats(self):
        with pytest.raises(TypeError):
            ICmp("slt", Constant(F32, 1.0), Constant(F32, 2.0))

    def test_fcmp_predicates(self):
        cmp = FCmp("olt", Constant(F32, 1.0), Constant(F32, 2.0))
        assert cmp.predicate == "olt"
        with pytest.raises(ValueError):
            FCmp("slt", Constant(F32, 1.0), Constant(F32, 2.0))


class TestSelect:
    def test_select_typing(self):
        cond = ICmp("eq", Constant(I32, 1), Constant(I32, 1))
        sel = Select(cond, Constant(F32, 1.0), Constant(F32, 2.0))
        assert sel.type == F32

    def test_select_arm_mismatch(self):
        cond = ICmp("eq", Constant(I32, 1), Constant(I32, 1))
        with pytest.raises(TypeError):
            Select(cond, Constant(F32, 1.0), Constant(I32, 2))

    def test_select_cond_must_be_bool(self):
        with pytest.raises(TypeError):
            Select(Constant(I32, 1), Constant(I32, 1), Constant(I32, 2))


class TestCasts:
    def test_valid_casts(self):
        assert Cast("sitofp", Constant(I32, 3), F32).type == F32
        assert Cast("fptosi", Constant(F32, 3.5), I32).type == I32
        assert Cast("sext", Constant(I32, 3), I64).type == I64

    def test_invalid_direction(self):
        with pytest.raises(TypeError):
            Cast("sitofp", Constant(F32, 1.0), F32)
        with pytest.raises(TypeError):
            Cast("sext", Constant(F32, 1.0), I64)


class TestMemory:
    def test_load_store_roundtrip_types(self):
        alloca = Alloca(F32)
        load = Load(alloca)
        assert load.type == F32
        store = Store(Constant(F32, 1.0), alloca)
        assert store.type.is_void

    def test_store_type_mismatch(self):
        alloca = Alloca(F32)
        with pytest.raises(TypeError):
            Store(Constant(I32, 1), alloca)

    def test_load_array_rejected(self):
        alloca = Alloca(ArrayType(F32, 4))
        with pytest.raises(TypeError):
            Load(alloca)

    def test_gep_typing(self):
        alloca = Alloca(ArrayType(ArrayType(F32, 4), 3))
        gep = GetElementPtr(
            alloca, [Constant(I32, 0), Constant(I32, 1), Constant(I32, 2)]
        )
        assert gep.type == PointerType(F32)

    def test_gep_too_deep(self):
        alloca = Alloca(F32)
        with pytest.raises(TypeError):
            GetElementPtr(alloca, [Constant(I32, 0), Constant(I32, 1)])

    def test_gep_needs_int_indices(self):
        alloca = Alloca(ArrayType(F32, 4))
        with pytest.raises(TypeError):
            GetElementPtr(alloca, [Constant(F32, 0.0)])


class TestDefUse:
    def test_users_tracked(self):
        a = Constant(I32, 1)
        op = BinaryOp("add", a, a)
        assert op in a.users
        assert a.users.count(op) == 2  # two operand slots

    def test_replace_all_uses(self):
        func = make_func()
        block = func.add_block("entry")
        b = IRBuilder(block)
        x = b.add(b.const_i32(1), b.const_i32(2))
        y = b.mul(x, b.const_i32(3))
        z = b.const_i32(7)
        x.replace_all_uses_with(z)
        assert y.operands[0] is z
        assert y not in x.users

    def test_erase_drops_operands(self):
        func = make_func()
        block = func.add_block("entry")
        b = IRBuilder(block)
        x = b.add(b.const_i32(1), b.const_i32(2))
        y = b.mul(x, b.const_i32(3))
        y.erase()
        assert y not in x.users
        assert y not in block.instructions


class TestPhi:
    def test_incoming_management(self):
        func = make_func()
        b0 = func.add_block("a")
        b1 = func.add_block("b")
        merge = func.add_block("m")
        phi = Phi(I32)
        merge.insert_front(phi)
        phi.add_incoming(Constant(I32, 1), b0)
        phi.add_incoming(Constant(I32, 2), b1)
        assert phi.incoming_for(b0).value == 1
        phi.remove_incoming(b0)
        with pytest.raises(KeyError):
            phi.incoming_for(b0)

    def test_incoming_type_checked(self):
        func = make_func()
        b0 = func.add_block("a")
        phi = Phi(I32)
        with pytest.raises(TypeError):
            phi.add_incoming(Constant(F32, 1.0), b0)


class TestControlFlow:
    def test_branch_successors(self):
        func = make_func()
        a = func.add_block("a")
        c = func.add_block("c")
        br = Branch(c)
        a.append(br)
        assert a.successors == [c]
        assert c.predecessors == [a]

    def test_cond_branch(self):
        func = make_func()
        a = func.add_block("a")
        t = func.add_block("t")
        f = func.add_block("f")
        cond = ICmp("eq", Constant(I32, 1), Constant(I32, 1))
        a.append(cond)
        a.append(CondBranch(cond, t, f))
        assert set(a.successors) == {t, f}

    def test_is_terminator_exactly_on_branches_and_return(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        terminators = {
            cls for cls in subclasses(Instruction) if cls.is_terminator
        }
        assert terminators == {Branch, CondBranch, Return}
        assert Instruction.is_terminator is False

    def test_predecessors_in_function_order_each_once(self):
        func = make_func()
        a, t, f, j = (func.add_block(n) for n in ("a", "t", "f", "j"))
        cond = ICmp("eq", Constant(I32, 1), Constant(I32, 1))
        a.append(cond)
        a.append(CondBranch(cond, t, t))  # both arms: a is listed once
        t.append(CondBranch(cond, j, f))
        f.append(Branch(j))
        j.append(Branch(a))
        preds = func.predecessor_map()
        assert preds == {a: [j], t: [a], f: [t], j: [t, f]}
        assert [b.predecessors for b in func.blocks] == [[j], [a], [t], [t, f]]

    def test_no_instructions_after_terminator(self):
        func = make_func()
        a = func.add_block("a")
        a.append(Return())
        with pytest.raises(ValueError):
            a.append(Return())


class TestCall:
    def test_signature_checked(self):
        module = Module("m")
        callee = module.add_function("g", I32, [I32, F32])
        call = Call(callee, [Constant(I32, 1), Constant(F32, 2.0)])
        assert call.type == I32
        with pytest.raises(TypeError):
            Call(callee, [Constant(I32, 1)])
        with pytest.raises(TypeError):
            Call(callee, [Constant(F32, 1.0), Constant(F32, 2.0)])


class TestResourceClass:
    def test_classes(self):
        assert resource_class(BinaryOp("fadd", Constant(F32, 1), Constant(F32, 2))) == "fadd"
        assert resource_class(ICmp("eq", Constant(I32, 1), Constant(I32, 1))) == "icmp"
        assert resource_class(Load(Alloca(I32))) == "load"
        assert resource_class(Return()) == "control"
        assert resource_class(UnaryOp("fsqrt", Constant(F32, 1.0))) == "fsqrt"
