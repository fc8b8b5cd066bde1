"""Unit tests for the JS value model and coercions."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.jsvm.objects import JSArray, JSObject
from repro.jsvm.values import (
    INT32_MAX,
    INT32_MIN,
    NULL,
    UNDEFINED,
    JSFunction,
    arguments_key,
    format_number,
    is_int32,
    js_equals,
    js_strict_equals,
    normalize_number,
    to_boolean,
    to_js_string,
    to_number,
    type_of,
    type_tag,
    value_key,
)
from repro.jsvm.bytecompiler import compile_source

from tests.helpers import ROOT


def make_function():
    code = compile_source("function f(x) { return x; }")
    inner = [c for c in code.constants if hasattr(c, "instructions")][0]
    return JSFunction(inner, ())


class TestSingletons:
    def test_undefined_is_singleton(self):
        from repro.jsvm.values import JSUndefined

        assert JSUndefined() is UNDEFINED

    def test_null_is_singleton(self):
        from repro.jsvm.values import JSNull

        assert JSNull() is NULL

    def test_falsiness(self):
        assert not UNDEFINED
        assert not NULL


class TestNormalizeNumber:
    def test_int_stays_int(self):
        assert normalize_number(5) == 5
        assert type(normalize_number(5)) is int

    def test_integral_float_to_int(self):
        assert type(normalize_number(5.0)) is int

    def test_fractional_float_stays(self):
        assert normalize_number(5.5) == 5.5

    def test_big_int_to_float(self):
        assert type(normalize_number(2 ** 32)) is float

    def test_negative_zero_preserved(self):
        result = normalize_number(-0.0)
        assert type(result) is float
        assert math.copysign(1.0, result) < 0

    def test_int32_bounds(self):
        assert type(normalize_number(INT32_MAX)) is int
        assert type(normalize_number(INT32_MIN)) is int
        assert type(normalize_number(INT32_MAX + 1)) is float

    @given(st.integers(min_value=INT32_MIN, max_value=INT32_MAX))
    def test_int32_roundtrip(self, n):
        assert normalize_number(n) == n
        assert is_int32(normalize_number(n))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_normalize_preserves_value(self, x):
        assert float(normalize_number(x)) == x


class TestTypeOf:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (UNDEFINED, "undefined"),
            (NULL, "object"),
            (True, "boolean"),
            (1, "number"),
            (1.5, "number"),
            ("s", "string"),
        ],
    )
    def test_primitives(self, value, expected):
        assert type_of(value) == expected

    def test_object(self):
        assert type_of(JSObject(ROOT)) == "object"

    def test_array_is_object(self):
        assert type_of(JSArray(ROOT)) == "object"

    def test_function(self):
        assert type_of(make_function()) == "function"


class TestTypeTag:
    def test_distinguishes_int_double(self):
        assert type_tag(1) == "int"
        assert type_tag(1.5) == "double"

    def test_distinguishes_array_object(self):
        assert type_tag(JSArray(ROOT)) == "array"
        assert type_tag(JSObject(ROOT)) == "object"

    def test_null_vs_undefined(self):
        assert type_tag(NULL) == "null"
        assert type_tag(UNDEFINED) == "undefined"

    def test_bool_is_not_int(self):
        assert type_tag(True) == "bool"


class TestToBoolean:
    @pytest.mark.parametrize(
        "value", [0, 0.0, "", UNDEFINED, NULL, float("nan"), False]
    )
    def test_falsy(self, value):
        assert to_boolean(value) is False

    @pytest.mark.parametrize("value", [1, -1, 0.5, "0", "false", True])
    def test_truthy(self, value):
        assert to_boolean(value) is True

    def test_objects_truthy(self):
        assert to_boolean(JSObject(ROOT)) is True
        assert to_boolean(JSArray(ROOT)) is True


class TestToNumber:
    def test_string_int(self):
        assert to_number("42") == 42

    def test_string_float(self):
        assert to_number("2.5") == 2.5

    def test_string_hex(self):
        assert to_number("0x10") == 16

    def test_empty_string(self):
        assert to_number("") == 0

    def test_whitespace_string(self):
        assert to_number("  7 ") == 7

    def test_garbage_is_nan(self):
        assert math.isnan(to_number("abc"))

    def test_bool(self):
        assert to_number(True) == 1
        assert to_number(False) == 0

    def test_undefined_is_nan(self):
        assert math.isnan(to_number(UNDEFINED))

    def test_null_is_zero(self):
        assert to_number(NULL) == 0

    def test_object_is_nan(self):
        assert math.isnan(to_number(JSObject(ROOT)))

    def test_single_element_array(self):
        assert to_number(JSArray(ROOT, [7])) == 7


class TestToString:
    def test_int(self):
        assert to_js_string(42) == "42"

    def test_integral_double(self):
        assert to_js_string(42.0) == "42"

    def test_nan(self):
        assert to_js_string(float("nan")) == "NaN"

    def test_infinity(self):
        assert to_js_string(float("inf")) == "Infinity"
        assert to_js_string(float("-inf")) == "-Infinity"

    def test_booleans(self):
        assert to_js_string(True) == "true"
        assert to_js_string(False) == "false"

    def test_nullish(self):
        assert to_js_string(UNDEFINED) == "undefined"
        assert to_js_string(NULL) == "null"

    def test_array_join(self):
        assert to_js_string(JSArray(ROOT, [1, 2, 3])) == "1,2,3"

    def test_array_holes(self):
        assert to_js_string(JSArray(ROOT, [1, UNDEFINED, NULL, 2])) == "1,,,2"

    def test_object(self):
        assert to_js_string(JSObject(ROOT)) == "[object Object]"

    @pytest.mark.parametrize(
        "value, text",
        [
            # Expected strings are what node prints for String(value).
            (2.0 ** 62, "4611686018427388000"),
            (1e-9, "1e-9"),
            (1.022999999999999e-06, "0.000001022999999999999"),
            (123456789012345683968.0, "123456789012345680000"),
            (1e21, "1e+21"),
            (1e-7, "1e-7"),
            (-0.0, "0"),
            (100, "100"),
            (100.0, "100"),
            (0.5, "0.5"),
        ],
    )
    def test_format_number_is_ecmascript_number_to_string(self, value, text):
        assert format_number(value) == text


class TestEquality:
    def test_strict_same_type(self):
        assert js_strict_equals(1, 1)
        assert not js_strict_equals(1, 2)

    def test_strict_int_double(self):
        assert js_strict_equals(1, 1.0)

    def test_strict_different_types(self):
        assert not js_strict_equals(1, "1")
        assert not js_strict_equals(0, False)

    def test_strict_nan(self):
        assert not js_strict_equals(float("nan"), float("nan"))

    def test_strict_objects_by_identity(self):
        a = JSObject(ROOT)
        assert js_strict_equals(a, a)
        assert not js_strict_equals(a, JSObject(ROOT))

    def test_loose_null_undefined(self):
        assert js_equals(NULL, UNDEFINED)
        assert not js_equals(NULL, 0)
        assert not js_equals(UNDEFINED, 0)

    def test_loose_number_string(self):
        assert js_equals(1, "1")
        assert js_equals("2.5", 2.5)

    def test_loose_boolean(self):
        assert js_equals(True, 1)
        assert js_equals(False, "0")

    def test_loose_array_to_primitive(self):
        assert js_equals(JSArray(ROOT, [1]), 1)
        assert js_equals(JSArray(ROOT, ["a"]), "a")

    @given(st.integers(min_value=-1000, max_value=1000))
    def test_loose_reflexive_numbers(self, n):
        assert js_equals(n, n)
        assert js_equals(n, float(n))


class TestValueKey:
    def test_primitives_by_value(self):
        assert value_key(1) == value_key(1)
        assert value_key("a") == value_key("a")

    def test_int_float_distinct(self):
        # The cache distinguishes representations: specialized code
        # baked an int32, a double must recompile typed paths.
        assert value_key(1) != value_key(1.0)

    def test_bool_not_int(self):
        assert value_key(True) != value_key(1)

    def test_objects_by_identity(self):
        a, b = JSObject(ROOT), JSObject(ROOT)
        assert value_key(a) == value_key(a)
        assert value_key(a) != value_key(b)

    def test_arguments_key(self):
        a = JSArray(ROOT)
        assert arguments_key([1, "x", a]) == arguments_key([1, "x", a])
        assert arguments_key([1]) != arguments_key([2])

    def test_undefined_null_distinct(self):
        assert value_key(UNDEFINED) != value_key(NULL)
