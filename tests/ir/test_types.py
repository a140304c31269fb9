"""Unit tests for the IR type system."""

import pytest

from repro.ir import (
    ArrayType,
    BOOL,
    F32,
    F64,
    FloatType,
    FunctionType,
    I8,
    I32,
    I64,
    IntType,
    PointerType,
    VOID,
    sizeof,
)


class TestEquality:
    def test_int_types_structural(self):
        assert IntType(32) == I32
        assert IntType(32) != IntType(64)
        assert hash(IntType(32)) == hash(I32)

    def test_float_types_structural(self):
        assert FloatType(32) == F32
        assert FloatType(64) == F64
        assert F32 != F64

    def test_int_never_equals_float(self):
        assert IntType(32) != FloatType(32)

    def test_pointer_structural(self):
        assert PointerType(F32) == PointerType(F32)
        assert PointerType(F32) != PointerType(F64)

    def test_array_structural(self):
        assert ArrayType(F32, 4) == ArrayType(F32, 4)
        assert ArrayType(F32, 4) != ArrayType(F32, 5)

    def test_function_type(self):
        a = FunctionType(VOID, (I32, F32))
        b = FunctionType(VOID, (I32, F32))
        assert a == b
        assert a != FunctionType(I32, (I32, F32))

    def test_usable_as_dict_keys(self):
        table = {I32: "int", PointerType(F32): "ptr"}
        assert table[IntType(32)] == "int"
        assert table[PointerType(FloatType(32))] == "ptr"


class TestClassification:
    def test_predicates(self):
        assert I32.is_int and I32.is_scalar and not I32.is_float
        assert F64.is_float and F64.is_scalar
        assert BOOL.is_bool and BOOL.is_int
        assert not I32.is_bool
        assert VOID.is_void
        assert PointerType(I32).is_pointer
        assert ArrayType(I32, 3).is_array

    def test_int_range(self):
        assert I8.min_value == -128
        assert I8.max_value == 127
        assert BOOL.min_value == 0
        assert BOOL.max_value == 1


class TestArrays:
    def test_nested_array_str(self):
        ty = ArrayType(ArrayType(F32, 4), 3)
        assert str(ty) == "[3 x [4 x f32]]"

    def test_flattened_count(self):
        ty = ArrayType(ArrayType(ArrayType(I32, 2), 3), 4)
        assert ty.flattened_count == 24


class TestSizeof:
    @pytest.mark.parametrize("ty,size", [
        (I8, 1), (I32, 4), (I64, 8), (F32, 4), (F64, 8),
        (PointerType(I32), 8),
        (ArrayType(F32, 10), 40),
        (ArrayType(ArrayType(I32, 4), 3), 48),
        (BOOL, 1),
    ])
    def test_sizes(self, ty, size):
        assert sizeof(ty) == size

    def test_void_has_no_size(self):
        with pytest.raises(TypeError):
            sizeof(VOID)


class TestInvalidConstruction:
    def test_zero_width_int(self):
        with pytest.raises(ValueError):
            IntType(0)

    def test_bad_float_width(self):
        with pytest.raises(ValueError):
            FloatType(16)

    def test_pointer_to_void(self):
        with pytest.raises(ValueError):
            PointerType(VOID)

    def test_negative_array(self):
        with pytest.raises(ValueError):
            ArrayType(I32, -1)

    def test_array_of_void(self):
        with pytest.raises(ValueError):
            ArrayType(VOID, 4)
