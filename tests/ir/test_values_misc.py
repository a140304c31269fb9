"""Tests for value helpers: constants, folding, naming, globals, undef."""

import pytest

from repro.ir import (
    Constant,
    F32,
    F64,
    GlobalVariable,
    I32,
    I8,
    PointerType,
    UndefValue,
)
from repro.ir.values import constant_fold_binary


class TestConstants:
    def test_value_equality(self):
        assert Constant(I32, 5) == Constant(I32, 5)
        assert Constant(I32, 5) != Constant(I32, 6)
        assert Constant(I32, 5) != Constant(F32, 5)
        assert hash(Constant(I32, 5)) == hash(Constant(I32, 5))

    def test_coercion_at_construction(self):
        assert Constant(I32, 3.9).value == 3
        assert Constant(F64, 3).value == 3.0
        assert isinstance(Constant(F64, 3).value, float)

    def test_ref_is_literal(self):
        assert Constant(I32, -7).ref == "-7"
        assert Constant(F32, 1.5).ref == "1.5"

    def test_non_scalar_rejected(self):
        with pytest.raises(TypeError):
            Constant(PointerType(I32), 0)


class TestConstantFolding:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 3, 4, 7),
        ("sub", 3, 4, -1),
        ("mul", -3, 4, -12),
        ("div", 7, 2, 3),
        ("div", -7, 2, -3),     # C truncation toward zero
        ("rem", -7, 2, -1),
        ("and", 12, 10, 8),
        ("or", 12, 10, 14),
        ("xor", 12, 10, 6),
        ("shl", 3, 2, 12),
        ("shr", 12, 2, 3),
    ])
    def test_int_folds(self, op, a, b, expected):
        result = constant_fold_binary(op, Constant(I32, a), Constant(I32, b))
        assert result is not None
        assert result.value == expected

    def test_division_by_zero_refused(self):
        assert constant_fold_binary("div", Constant(I32, 1), Constant(I32, 0)) is None
        assert constant_fold_binary("rem", Constant(I32, 1), Constant(I32, 0)) is None

    def test_float_folds(self):
        result = constant_fold_binary("div", Constant(F64, 7.0), Constant(F64, 2.0))
        assert result.value == 3.5

    def test_unknown_op(self):
        assert constant_fold_binary("pow", Constant(I32, 2), Constant(I32, 3)) is None


class TestNaming:
    def test_global_ref_uses_at(self):
        var = GlobalVariable(I32, "counter")
        assert var.ref == "@counter"
        assert var.type == PointerType(I32)

    def test_undef_ref(self):
        assert UndefValue(I32).ref == "undef"
