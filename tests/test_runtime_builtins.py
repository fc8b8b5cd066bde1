"""Tests for the host runtime: globals and builtin methods."""

import math

import pytest

from repro.errors import JSRangeError, JSReferenceError, JSTypeError
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.runtime import Runtime


def run1(source):
    out = Interpreter().run_source(source)
    assert len(out) == 1
    return out[0]


class TestGlobals:
    def test_get_set_has(self):
        runtime = Runtime()
        runtime.set_global("x", 42)
        assert runtime.get_global("x") == 42
        assert runtime.has_global("x")
        assert not runtime.has_global("y")

    def test_missing_global_raises(self):
        with pytest.raises(JSReferenceError):
            Runtime().get_global("nope")

    def test_nan_infinity_constants(self):
        assert run1("print(typeof NaN, typeof Infinity, typeof undefined);") == (
            "number number undefined"
        )


class TestMathObject:
    def test_trig(self):
        out = run1("print(Math.sin(0), Math.cos(0), Math.atan2(0, 1));")
        assert out == "0 1 0"

    def test_sqrt_negative_is_nan(self):
        assert run1("print(Math.sqrt(-1));") == "NaN"

    def test_log_domains(self):
        assert run1("print(Math.log(0), Math.log(-1));") == "-Infinity NaN"

    def test_round_half_up(self):
        assert run1("print(Math.round(2.5), Math.round(-2.5), Math.round(2.4));") == "3 -2 2"

    def test_min_max_nan(self):
        assert run1("print(Math.max(1, NaN));") == "NaN"

    def test_min_max_empty(self):
        assert run1("print(Math.max(), Math.min());") == "-Infinity Infinity"

    def test_pow_edge(self):
        assert run1("print(Math.pow(0, 0), Math.pow(2, -1));") == "1 0.5"

    def test_constants(self):
        assert run1("print(Math.E > 2.7 && Math.E < 2.8, Math.SQRT2 > 1.41);") == "true true"

    def test_random_in_unit_interval(self):
        out = run1(
            "var ok = true; for (var i = 0; i < 100; i++) { var r = Math.random(); if (r < 0 || r >= 1) ok = false; } print(ok);"
        )
        assert out == "true"


class TestStringMethods:
    def test_char_code_out_of_range(self):
        assert run1("print('ab'.charCodeAt(9));") == "NaN"

    def test_char_at_out_of_range(self):
        assert run1("print('ab'.charAt(9) === '');") == "true"

    def test_substring_swaps_arguments(self):
        assert run1("print('hello'.substring(4, 1));") == "ell"

    def test_substring_clamps(self):
        assert run1("print('hi'.substring(-5, 99));") == "hi"

    def test_split_empty_separator(self):
        assert run1("print('abc'.split('').length);") == "3"

    def test_split_no_separator(self):
        assert run1("print('a b'.split().length);") == "1"

    def test_index_of_with_start(self):
        assert run1("print('aXaX'.indexOf('X', 2));") == "3"

    def test_last_index_of(self):
        assert run1("print('aXaX'.lastIndexOf('X'));") == "3"

    def test_slice_negative(self):
        assert run1("print('hello'.slice(1, 3));") == "el"

    def test_replace_first_only(self):
        assert run1("print('aaa'.replace('a', 'b'));") == "baa"

    def test_method_on_wrong_receiver_raises(self):
        runtime = Runtime()
        method = runtime.string_methods["charAt"]
        with pytest.raises(JSTypeError):
            method(42, [0])


class TestArrayMethods:
    def test_join_default_comma(self):
        assert run1("print([1, 2].join());") == "1,2"

    def test_join_skips_nullish(self):
        assert run1("print([1, null, undefined, 2].join('-'));") == "1---2"

    def test_index_of_strict(self):
        assert run1("print([1, '1'].indexOf('1'));") == "1"

    def test_slice_range(self):
        assert run1("print([0,1,2,3,4].slice(1, 3).join(''));") == "12"

    def test_concat_flattens_arrays_one_level(self):
        assert run1("print([1].concat([2, 3], 4).length);") == "4"

    def test_sort_is_in_place_and_returns(self):
        assert run1("var a = [3,1,2]; print(a.sort() === a, a.join(''));") == "true 123"

    def test_push_returns_new_length(self):
        assert run1("var a = []; print(a.push(1, 2, 3));") == "3"

    def test_shift_empty(self):
        assert run1("print(typeof [].shift());") == "undefined"


class TestNumberMethods:
    def test_to_string_radix_2(self):
        assert run1("print((10).toString(2));") == "1010"

    def test_to_string_negative(self):
        assert run1("print((-255).toString(16));") == "-ff"

    def test_to_fixed(self):
        assert run1("print((3.14159).toFixed(2));") == "3.14"

    def test_to_string_radix_10_is_string_of_the_number(self):
        assert run1("print((1e-9).toString(), (0.5).toString(10));") == "1e-9 0.5"

    def test_to_string_radix_of_a_non_finite_number(self):
        assert run1("print((0 / 0).toString(2), (-1 / 0).toString(16));") == (
            "NaN -Infinity"
        )

    @pytest.mark.parametrize("radix", [0, 1, 37])
    def test_to_string_radix_out_of_range_is_a_range_error(self, radix):
        with pytest.raises(JSRangeError, match="radix"):
            run1("print((10).toString(%d));" % radix)

    def test_to_string_of_a_fraction_in_a_radix_prints_its_shortest_digits(self):
        # V8's DoubleToRadixCString, as node prints them.
        assert run1("print((0.5).toString(2), (0.1).toString(3), (-255.5).toString(16));") == (
            "0.1 0.0022002200220022002200220022002201 -ff.8"
        )

    @pytest.mark.parametrize("backend", ["simple", "whole"])
    def test_a_compiled_fractional_radix_call_is_not_folded(self, backend):
        """Specialized on its arguments, the call's receiver and radix are
        constants under ``FULL_SPEC``.  Constant propagation folds a
        foldable native by calling it with no receiver and keeps the call
        when that raises; so it must raise, and the compiled call must
        print what the interpreter does."""
        from repro import FULL_SPEC, Engine

        to_string = Runtime().number_methods["toString"]
        assert to_string.foldable
        with pytest.raises(JSTypeError):
            to_string.fn(None, [2])
        assert to_string.fn(0.5, [2]) == "0.1"
        engine = Engine(config=FULL_SPEC, executor_backend=backend, hot_call_threshold=1)
        printed = engine.run_source(
            "function f(x, r) { var y = x * 1; return y.toString(r); }"
            "print(f(0.5, 2));"
        )
        assert printed == ["0.1"]
        assert engine.stats.compiles == 1 and engine.stats.specialized_functions

    def test_to_fixed_rounds_the_exact_value_a_tie_away_from_zero(self):
        assert run1("print((0.5).toFixed(0), (2.5).toFixed(0), (1.25).toFixed(1), (1.005).toFixed(2));") == (
            "1 3 1.3 1.00"
        )

    def test_to_fixed_signs_and_large_values(self):
        assert run1("print((-0.5).toFixed(0), (-0).toFixed(2), (1e21).toFixed(0), (-0.0001).toFixed(2));") == (
            "-1 0.00 1e+21 -0.00"
        )

    @pytest.mark.parametrize("digits", ["-1", "101", "1 / 0"])
    def test_to_fixed_digits_out_of_range_is_a_range_error(self, digits):
        with pytest.raises(JSRangeError, match="toFixed"):
            run1("print((1.5).toFixed(%s));" % digits)

    def test_to_fixed_digits_at_the_bounds(self):
        assert run1("print((1.5).toFixed(100).length, (1.5).toFixed(-0.5), (1.5).toFixed(0 / 0));") == (
            "102 2 2"
        )


class TestParseFunctions:
    def test_parse_int_sign(self):
        assert run1("print(parseInt('-42'), parseInt('+7'));") == "-42 7"

    def test_parse_int_empty_is_nan(self):
        assert run1("print(parseInt(''));") == "NaN"

    def test_parse_float_exponent(self):
        assert run1("print(parseFloat('1.5e2'));") == "150"

    def test_parse_float_trailing_garbage(self):
        assert run1("print(parseFloat('2.5abc'));") == "2.5"


class TestPrintCapture:
    def test_printed_accumulates(self):
        interp = Interpreter()
        interp.run_source("print(1); print(2);")
        assert interp.runtime.printed == ["1", "2"]

    def test_shared_output_list(self):
        shared = []
        runtime = Runtime(output=shared)
        Interpreter(runtime=runtime).run_source("print('x');")
        assert shared == ["x"]
