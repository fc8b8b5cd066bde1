"""Unit tests for shared operator semantics (interpreter == folder == native)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.jsvm import operations
from repro.jsvm.bytecode import Op
from repro.jsvm.objects import JSArray, JSObject
from repro.jsvm.values import INT32_MAX, INT32_MIN, NULL, UNDEFINED
from repro.errors import JSTypeError

from tests.helpers import ROOT


def binop(op, a, b):
    return operations.binary_op(op, a, b)


class TestToInt32:
    def test_plain(self):
        assert operations.to_int32(5) == 5

    def test_truncates(self):
        assert operations.to_int32(5.9) == 5
        assert operations.to_int32(-5.9) == -5

    def test_wraps(self):
        assert operations.to_int32(2 ** 31) == -(2 ** 31)
        assert operations.to_int32(2 ** 32 + 3) == 3

    def test_nan_and_inf(self):
        assert operations.to_int32(float("nan")) == 0
        assert operations.to_int32(float("inf")) == 0

    def test_string(self):
        assert operations.to_int32("10") == 10

    @given(st.integers(min_value=-(2 ** 40), max_value=2 ** 40))
    def test_range_invariant(self, n):
        assert INT32_MIN <= operations.to_int32(n) <= INT32_MAX

    def test_to_uint32(self):
        assert operations.to_uint32(-1) == 2 ** 32 - 1


class TestAdd:
    def test_int_add(self):
        assert binop(Op.ADD, 2, 3) == 5

    def test_string_concat(self):
        assert binop(Op.ADD, "a", "b") == "ab"

    def test_mixed_concat(self):
        assert binop(Op.ADD, "a", 1) == "a1"
        assert binop(Op.ADD, 1, "a") == "1a"

    def test_array_concat(self):
        assert binop(Op.ADD, JSArray(ROOT, [1, 2]), "!") == "1,2!"

    def test_object_concat(self):
        assert binop(Op.ADD, JSObject(ROOT), "") == "[object Object]"

    def test_undefined_add(self):
        assert math.isnan(binop(Op.ADD, UNDEFINED, 1))

    def test_null_add(self):
        assert binop(Op.ADD, NULL, 1) == 1

    def test_bool_add(self):
        assert binop(Op.ADD, True, True) == 2

    def test_overflow_to_double(self):
        result = binop(Op.ADD, INT32_MAX, 1)
        assert result == 2 ** 31
        assert type(result) is float

    @given(
        st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
        st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
    )
    def test_commutative_numeric(self, a, b):
        assert binop(Op.ADD, a, b) == binop(Op.ADD, b, a)


class TestArithmetic:
    def test_div_is_exact(self):
        assert binop(Op.DIV, 7, 2) == 3.5

    def test_div_integral_normalizes(self):
        result = binop(Op.DIV, 6, 2)
        assert result == 3 and type(result) is int

    def test_div_by_zero(self):
        assert binop(Op.DIV, 1, 0) == float("inf")
        assert binop(Op.DIV, -1, 0) == float("-inf")
        assert math.isnan(binop(Op.DIV, 0, 0))

    def test_mod_sign_follows_dividend(self):
        assert binop(Op.MOD, 7, 3) == 1
        assert binop(Op.MOD, -7, 3) == -1
        assert binop(Op.MOD, 7, -3) == 1

    def test_mod_zero_is_nan(self):
        assert math.isnan(binop(Op.MOD, 1, 0))

    def test_mul(self):
        assert binop(Op.MUL, 4, 5) == 20

    def test_sub_string_coercion(self):
        assert binop(Op.SUB, "10", 3) == 7

    def test_neg_zero(self):
        result = operations.js_neg(0)
        assert type(result) is float
        assert math.copysign(1.0, result) < 0

    @given(st.integers(min_value=1, max_value=10 ** 6), st.integers(min_value=1, max_value=10 ** 6))
    def test_mod_range(self, a, b):
        result = binop(Op.MOD, a, b)
        assert 0 <= result < b


class TestBitwise:
    def test_and_or_xor(self):
        assert binop(Op.BITAND, 0b1100, 0b1010) == 0b1000
        assert binop(Op.BITOR, 0b1100, 0b1010) == 0b1110
        assert binop(Op.BITXOR, 0b1100, 0b1010) == 0b0110

    def test_shift_left(self):
        assert binop(Op.SHL, 1, 4) == 16

    def test_shift_left_wraps(self):
        assert binop(Op.SHL, 1, 31) == INT32_MIN

    def test_shift_count_masked(self):
        assert binop(Op.SHL, 1, 33) == 2

    def test_arithmetic_shift_right(self):
        assert binop(Op.SHR, -8, 1) == -4

    def test_logical_shift_right(self):
        assert binop(Op.USHR, -8, 28) == 15
        assert binop(Op.USHR, -1, 0) == 2 ** 32 - 1

    def test_double_operands_truncate(self):
        assert binop(Op.BITAND, 5.7, 3.2) == 1

    @given(st.integers(min_value=INT32_MIN, max_value=INT32_MAX))
    def test_double_bitnot_is_identity(self, n):
        assert operations.unary_op(Op.BITNOT, operations.unary_op(Op.BITNOT, n)) == n


class TestComparisons:
    def test_numeric(self):
        assert binop(Op.LT, 1, 2)
        assert binop(Op.LE, 2, 2)
        assert not binop(Op.GT, 1, 2)
        assert binop(Op.GE, 2, 2)

    def test_string_lexicographic(self):
        assert binop(Op.LT, "abc", "abd")
        assert binop(Op.GT, "b", "a")

    def test_mixed_coerces_to_number(self):
        assert binop(Op.LT, "9", 10)
        assert binop(Op.LT, "2", "10") is False  # both strings: lexicographic

    def test_nan_comparisons_false(self):
        nan = float("nan")
        for op in (Op.LT, Op.LE, Op.GT, Op.GE):
            assert binop(op, nan, 1) is False
            assert binop(op, 1, nan) is False

    def test_equality_dispatch(self):
        assert binop(Op.EQ, "1", 1)
        assert not binop(Op.STRICTEQ, "1", 1)
        assert binop(Op.STRICTNE, "1", 1)
        assert not binop(Op.NE, "1", 1)


class TestInOperator:
    def test_array_index(self):
        assert binop(Op.IN, 0, JSArray(ROOT, [1]))
        assert not binop(Op.IN, 1, JSArray(ROOT, [1]))

    def test_object_property(self):
        obj = JSObject(ROOT, {"k": 1})
        assert binop(Op.IN, "k", obj)
        assert not binop(Op.IN, "z", obj)

    def test_in_on_primitive_raises(self):
        with pytest.raises(JSTypeError):
            binop(Op.IN, "k", 1)


class TestUnary:
    def test_not(self):
        assert operations.unary_op(Op.NOT, 0) is True
        assert operations.unary_op(Op.NOT, "x") is False

    def test_tonum(self):
        assert operations.unary_op(Op.TONUM, "5") == 5

    def test_typeof(self):
        assert operations.unary_op(Op.TYPEOF, 1) == "number"

    def test_bitnot(self):
        assert operations.unary_op(Op.BITNOT, 5) == -6

    def test_neg_double(self):
        assert operations.unary_op(Op.NEG, 2.5) == -2.5


class TestPropertyAccess:
    def test_string_length(self):
        assert operations.get_property("hello", "length") == 5

    def test_array_length(self):
        assert operations.get_property(JSArray(ROOT, [1, 2]), "length") == 2

    def test_object_missing_is_undefined(self):
        assert operations.get_property(JSObject(ROOT), "nope") is UNDEFINED

    def test_read_of_undefined_raises(self):
        with pytest.raises(JSTypeError):
            operations.get_property(UNDEFINED, "x")

    def test_write_to_null_raises(self):
        with pytest.raises(JSTypeError):
            operations.set_property(NULL, "x", 1)

    def test_primitive_write_ignored(self):
        operations.set_property("s", "x", 1)  # silently dropped

    def test_string_index(self):
        assert operations.get_element("abc", 1) == "b"

    def test_string_index_out_of_range(self):
        assert operations.get_element("abc", 9) is UNDEFINED

    def test_array_element(self):
        assert operations.get_element(JSArray(ROOT, [7]), 0) == 7

    def test_array_hole_is_undefined(self):
        assert operations.get_element(JSArray(ROOT, [7]), 3) is UNDEFINED

    def test_set_element_grows(self):
        array = JSArray(ROOT)
        operations.set_element(array, 3, "x")
        assert array.length == 4
        assert array.get_element(0) is UNDEFINED
