"""Unit tests for scope analysis and bytecode generation."""

import pytest

from repro.errors import CompilerError
from repro.jsvm.bytecode import Op
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.interpreter import Interpreter


def nested(code, name=None):
    """Fetch a nested CodeObject from a compiled program."""
    found = []

    def walk(c):
        for constant in c.constants:
            if hasattr(constant, "instructions"):
                found.append(constant)
                walk(constant)

    walk(code)
    if name is None:
        return found[0]
    for c in found:
        if c.name == name:
            return c
    raise AssertionError("no nested code named %r" % name)


def ops_of(code):
    return [i.op for i in code.instructions]


class TestStructure:
    def test_toplevel_uses_globals(self):
        code = compile_source("var x = 1; print(x);")
        assert Op.SETGLOBAL in ops_of(code)
        assert Op.GETLOCAL not in ops_of(code) or code.local_names

    def test_function_uses_locals(self):
        code = nested(compile_source("function f() { var x = 1; return x; }"))
        assert Op.SETLOCAL in ops_of(code)
        assert Op.SETGLOBAL not in ops_of(code)

    def test_params_resolve_to_args(self):
        code = nested(compile_source("function f(a) { return a; }"))
        assert Op.GETARG in ops_of(code)

    def test_undeclared_resolves_to_global(self):
        code = nested(compile_source("function f() { return g; }"))
        assert Op.GETGLOBAL in ops_of(code)

    def test_terminator_always_present(self):
        code = compile_source("")
        assert code.instructions[-1].op == Op.RETURN_UNDEF

    def test_validate_passes(self):
        code = compile_source("function f(n) { while (n) n--; return n; } f(3);")
        code.validate()
        nested(code).validate()

    def test_function_hoisting(self):
        source = "print(f()); function f() { return 42; }"
        assert Interpreter().run_source(source) == ["42"]

    def test_const_pool_interning(self):
        code = nested(compile_source("function f() { return 7 + 7 + 7; }"))
        sevens = [c for c in code.constants if c == 7]
        assert len(sevens) == 1

    def test_disassemble_smoke(self):
        code = compile_source("var x = 1;")
        text = code.disassemble()
        assert "setglobal" in text


class TestClosureAnalysis:
    def test_no_capture_no_cells(self):
        code = nested(compile_source("function f() { var x = 1; return x; }"))
        assert not code.has_cells
        assert not code.has_frees

    def test_capture_creates_cell(self):
        source = "function o() { var c = 0; return function() { return c; }; }"
        outer = nested(compile_source(source), "o")
        assert "c" in outer.cell_names

    def test_inner_has_free(self):
        source = "function o() { var c = 0; return function i() { return c; }; }"
        inner = nested(compile_source(source), "i")
        assert "c" in inner.free_names

    def test_captured_param_becomes_cell(self):
        source = "function o(p) { return function i() { return p; }; }"
        outer = nested(compile_source(source), "o")
        assert "p" in outer.cell_names

    def test_transitive_capture(self):
        source = """
        function a() {
          var v = 1;
          return function b() { return function c() { return v; }; };
        }
        """
        b = nested(compile_source(source), "b")
        c = nested(compile_source(source), "c")
        assert "v" in b.free_names  # carried through
        assert "v" in c.free_names

    def test_global_reference_is_not_free(self):
        source = "var g = 1; function o() { return function i() { return g; }; }"
        inner = nested(compile_source(source), "i")
        assert inner.free_names == []

    def test_sibling_functions_no_capture(self):
        source = "function a() { var x = 1; return x; } function b() { var x = 2; return x; }"
        code = compile_source(source)
        assert not nested(code, "a").has_cells
        assert not nested(code, "b").has_cells


class TestControlFlowShapes:
    def test_while_shape(self):
        code = nested(compile_source("function f(n) { while (n) n--; }"))
        ops = ops_of(code)
        assert Op.IFFALSE in ops
        assert Op.JUMP in ops
        jumps = [i for i in code.instructions if i.op == Op.JUMP]
        assert any(j.arg < code.instructions.index(j) for j in jumps)

    def test_do_while_uses_iftrue(self):
        code = nested(compile_source("function f(n) { do n--; while (n); }"))
        assert Op.IFTRUE in ops_of(code)

    def test_logical_and_short_circuits(self):
        assert Interpreter().run_source("print(false && crash());") == ["false"]

    def test_logical_or_short_circuits(self):
        assert Interpreter().run_source("print(1 || crash());") == ["1"]

    def test_break_outside_loop(self):
        with pytest.raises(CompilerError):
            compile_source("break;")

    def test_continue_outside_loop(self):
        with pytest.raises(CompilerError):
            compile_source("continue;")


class TestCallShapes:
    def test_plain_call_pushes_undef_this(self):
        code = compile_source("f();")
        ops = ops_of(code)
        call_at = ops.index(Op.CALL)
        assert Op.UNDEF in ops[:call_at]

    def test_method_call_arity(self):
        code = compile_source("obj.m(1, 2, 3);")
        call = [i for i in code.instructions if i.op == Op.CALL][0]
        assert call.arg == 3

    def test_new(self):
        code = compile_source("new F(1);")
        assert Op.NEW in ops_of(code)


class TestSelfReference:
    def test_named_function_expression_binds_self(self):
        source = "var f = function fact(n) { return n < 2 ? 1 : n * fact(n - 1); }; print(f(5));"
        assert Interpreter().run_source(source) == ["120"]

    def test_self_op_emitted(self):
        code = nested(compile_source("var f = function g() { return g; };"), "g")
        assert Op.SELF in ops_of(code)


class TestNothingLingers:
    """What only the compile needs dies with it, by reference counting: a
    page's dead engine already waits for the cycle collector, and the
    front half should not add its scratch data to that."""

    SOURCE = """
        function outer(a) {
            var kept = a + 1;
            function inner(b) { return b + kept; }
            return (function named(c) { return c ? named(c - 1) : inner(c); })(a);
        }
        print(outer(2));
    """

    def test_compiling_leaves_no_cyclic_garbage(self):
        import gc

        gc.collect()
        gc.disable()
        try:
            code = compile_source(self.SOURCE)
            assert gc.collect() == 0
        finally:
            gc.enable()
        interpreter = Interpreter()
        interpreter.run_code(code)
        assert interpreter.runtime.printed == ["3"]

    def test_interning_tables_end_with_the_compile(self):
        toplevel = compile_source(self.SOURCE)
        for code in [toplevel, nested(toplevel)]:
            assert code._const_slots is None and code._name_slots is None
