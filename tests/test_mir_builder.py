"""Tests for bytecode → MIR construction."""

import pytest

from repro.errors import NotCompilable
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.feedback import TypeFeedback
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.values import UNDEFINED
from repro.mir import instructions as mi
from repro.mir.builder import build_mir
from repro.mir.printer import format_graph
from repro.mir.types import MIRType
from repro.mir.verifier import verify_graph


def function_code(source, name=None):
    code = compile_source(source)
    found = []

    def walk(c):
        for constant in c.constants:
            if hasattr(constant, "instructions"):
                found.append(constant)
                walk(constant)

    walk(code)
    if name is None:
        return found[0]
    return [c for c in found if c.name == name][0]


def profiled_code(source, name=None):
    """Compile, attach feedback, run interpreted to warm it."""
    toplevel = compile_source(source)
    code = function_code(source, name)
    # Re-find within this toplevel (function_code compiled separately).
    found = []

    def walk(c):
        for constant in c.constants:
            if hasattr(constant, "instructions"):
                found.append(constant)
                walk(constant)

    walk(toplevel)
    target = [c for c in found if c.name == code.name][0]
    target.feedback = TypeFeedback(target.num_params)
    interp = Interpreter()

    original_call = interp.call_function

    def recording_call(function, this_value, args):
        if function.code is target:
            target.feedback.record_args(args)
        return original_call(function, this_value, args)

    interp.call_function = recording_call
    interp.run_code(toplevel)
    return target


def instrs_of(graph, cls):
    return [i for i in graph.all_instructions() if isinstance(i, cls)]


MAP_SOURCE = """
function inc(x) { return x + 1; }
function map(s, b, n, f) {
  var i = b;
  while (i < n) { s[i] = f(s[i]); i++; }
  return s;
}
map([1, 2, 3, 4, 5], 2, 5, inc);
"""


class TestBasicConstruction:
    def test_simple_function(self):
        code = function_code("function f(a, b) { return a + b; }")
        graph = build_mir(code)
        verify_graph(graph)
        assert graph.entry is not None
        assert graph.osr_entry is None
        assert instrs_of(graph, mi.MParameter)
        assert instrs_of(graph, mi.MReturn)

    def test_entry_has_checkoverrecursed(self):
        graph = build_mir(function_code("function f() { return 1; }"))
        assert len(instrs_of(graph, mi.MCheckOverRecursed)) == 1

    def test_loop_creates_phis(self):
        code = function_code("function f(n) { var s = 0; while (s < n) s++; return s; }")
        graph = build_mir(code)
        verify_graph(graph)
        assert instrs_of(graph, mi.MPhi)

    def test_straightline_has_no_phis_after_simplify(self):
        code = function_code("function f(a) { var x = a; var y = x; return y; }")
        graph = build_mir(code)
        assert not instrs_of(graph, mi.MPhi)

    def test_if_else_join_phi(self):
        code = function_code("function f(c) { var x; if (c) x = 1; else x = 2; return x; }")
        graph = build_mir(code)
        verify_graph(graph)
        phis = instrs_of(graph, mi.MPhi)
        assert len(phis) >= 1

    def test_call_shape(self):
        code = function_code("function f(g) { return g(1, 2); }")
        graph = build_mir(code)
        calls = instrs_of(graph, mi.MCall)
        assert len(calls) == 1
        assert len(calls[0].call_args) == 2

    def test_resume_points_on_guard_candidates(self):
        code = function_code("function f(a, b) { return a + b; }")
        graph = build_mir(code)
        binary = instrs_of(graph, mi.MBinaryV)[0]
        assert binary.resume_point is not None
        assert binary.resume_point.mode == "after"

    def test_getelem_resume_mode_at(self):
        code = function_code("function f(a, i) { return a[i]; }")
        graph = build_mir(code)
        load = instrs_of(graph, mi.MGetElemV)[0]
        assert load.resume_point.mode == "at"

    def test_printer_smoke(self):
        graph = build_mir(function_code("function f(a) { return a; }"))
        text = format_graph(graph)
        assert "parameter" in text


class TestNotCompilable:
    def test_free_variables_rejected(self):
        code = function_code(
            "function o() { var c = 1; return function i() { return c; }; }", "i"
        )
        with pytest.raises(NotCompilable):
            build_mir(code)

    def test_cell_variables_rejected(self):
        code = function_code(
            "function o() { var c = 1; return function i() { return c; }; }", "o"
        )
        with pytest.raises(NotCompilable):
            build_mir(code)

    def test_closure_creating_function_without_capture_ok(self):
        code = function_code("function o() { return function i() { return 1; }; }", "o")
        graph = build_mir(code)
        assert instrs_of(graph, mi.MLambda)


class TestParameterSpecialization:
    def test_constants_replace_parameters(self):
        code = function_code("function f(a, b) { return a + b; }")
        graph = build_mir(code, param_values=[3, 4])
        assert graph.specialized
        assert not instrs_of(graph, mi.MParameter)
        constants = [c.value for c in instrs_of(graph, mi.MConstant)]
        assert 3 in constants and 4 in constants

    def test_this_value_specialized(self):
        code = function_code("function f() { return this; }")
        graph = build_mir(code, param_values=[], this_value="THIS")
        constants = [c.value for c in instrs_of(graph, mi.MConstant)]
        assert "THIS" in constants

    def test_unspecialized_keeps_parameters(self):
        code = function_code("function f(a) { return a; }")
        graph = build_mir(code)
        assert not graph.specialized
        assert instrs_of(graph, mi.MParameter)


class TestOSR:
    def test_osr_entry_block(self):
        code = function_code("function f(n) { var s = 0; while (s < n) s++; return s; }")
        # Find the loop-header pc: the target of the backward jump.
        from repro.jsvm.bytecode import Op

        backward = [i for i in code.instructions if i.op == Op.JUMP and i.arg < code.instructions.index(i)]
        osr_pc = backward[0].arg
        graph = build_mir(
            code,
            osr_pc=osr_pc,
            osr_args=[100],
            osr_locals=[UNDEFINED] * code.num_locals,
        )
        verify_graph(graph)
        assert graph.osr_entry is not None
        assert instrs_of(graph, mi.MOsrValue)

    def test_specialized_osr_uses_constants(self):
        code = function_code("function f(n) { var s = 0; while (s < n) s++; return s; }")
        from repro.jsvm.bytecode import Op

        backward = [i for i in code.instructions if i.op == Op.JUMP and i.arg < code.instructions.index(i)]
        osr_pc = backward[0].arg
        graph = build_mir(
            code,
            param_values=[100],
            osr_pc=osr_pc,
            osr_args=[100],
            osr_locals=[5] * code.num_locals,
        )
        verify_graph(graph)
        assert graph.osr_entry is not None
        assert not instrs_of(graph, mi.MOsrValue)  # constants instead


class TestTypeFeedbackIntegration:
    def test_arg_unbox_guards_from_profile(self):
        code = profiled_code("function f(a, b) { return a + b; } f(1, 2); f(3, 4);")
        graph = build_mir(code, feedback=code.feedback)
        unboxes = instrs_of(graph, mi.MUnbox)
        assert any(u.type == MIRType.INT32 for u in unboxes)

    def test_polymorphic_args_stay_boxed(self):
        code = profiled_code("function f(a) { return a; } f(1); f('x');")
        graph = build_mir(code, feedback=code.feedback)
        assert not instrs_of(graph, mi.MUnbox)

    def test_generic_mode_disables_guards(self):
        code = profiled_code("function f(a, b) { return a + b; } f(1, 2);")
        graph = build_mir(code, feedback=code.feedback, generic=True)
        assert not instrs_of(graph, mi.MUnbox)
        assert not instrs_of(graph, mi.MTypeBarrier)

    def test_array_receiver_speculation(self):
        code = profiled_code(MAP_SOURCE, "map")
        graph = build_mir(code, feedback=code.feedback)
        verify_graph(graph)
        unboxes = instrs_of(graph, mi.MUnbox)
        assert any(u.type == MIRType.ARRAY for u in unboxes)
