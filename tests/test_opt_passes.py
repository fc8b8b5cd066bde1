"""Tests for the optimization passes of the paper's Section 3."""

from repro.engine.config import BASELINE, FULL_SPEC, OptConfig
from repro.jsvm.bytecode import Op
from repro.jsvm.bytecompiler import compile_source
from repro.mir import instructions as mi
from repro.mir.builder import build_mir
from repro.mir.specializer import specialize_types
from repro.mir.verifier import verify_graph
from repro.opts.bounds_check import run_bounds_check_elimination
from repro.opts.constprop import run_constant_propagation
from repro.opts.dce import run_dce
from repro.opts.gvn import run_gvn
from repro.opts.inlining import run_inlining
from repro.opts.licm import run_licm
from repro.opts.loop_inversion import rotate_loops
from repro.opts.pass_manager import optimize

from tests.helpers import ROOT, compile_and_profile, count, instrs


def built(source, name=None, param_values=None, rotate=False, this_value=None):
    _top, code = compile_and_profile(source, name)
    if rotate:
        rotate_loops(code)
    graph = build_mir(
        code, feedback=code.feedback, param_values=param_values, this_value=this_value
    )
    return graph, code


def typed(source, **kwargs):
    graph, code = built(source, **kwargs)
    specialize_types(graph)
    verify_graph(graph)
    return graph


class TestConstProp:
    def test_folds_constant_arithmetic(self):
        graph = typed("function f(a) { return a * 2 + 1; } f(10);", param_values=[10])
        folded = run_constant_propagation(graph)
        verify_graph(graph)
        assert folded >= 2
        returns = instrs(graph, mi.MReturn)
        assert isinstance(returns[0].operands[0], mi.MConstant)
        assert returns[0].operands[0].value == 21

    def test_int32_overflow_fold_never_materializes_a_double(self):
        # A specialized `a - b` can fold out of int32; the lattice keeps
        # the true JS value, but the INT32-typed definition must not be
        # replaced with a double constant — that would delete its
        # overflow bailout and feed a raw float into INT32-typed uses.
        source = (
            "function f(a, b) { var s = 0;"
            " for (var i = 0; i < 3; i++) { s = (a - b) & i; }"
            " return s; } f(-2147483647, 65535);"
        )
        graph = typed(source, param_values=[-2147483647, 65535])
        run_constant_propagation(graph)
        verify_graph(graph)
        assert count(graph, mi.MBinaryArithI) >= 1
        assert not [
            c for c in instrs(graph, mi.MConstant) if type(c.value) is float
        ]
        # Propagation through the overflowed value is kept: a fully
        # constant consumer still folds, to the JS-correct int32.
        folded = typed(
            "function f(a, b) { return (a - b) & 255; } f(-2147483647, 65535);",
            param_values=[-2147483647, 65535],
        )
        run_constant_propagation(folded)
        returns = instrs(folded, mi.MReturn)
        assert isinstance(returns[0].operands[0], mi.MConstant)
        assert returns[0].operands[0].value == 2  # ToInt32(-2147549182) & 255

    def test_folds_through_phis(self):
        source = "function f(c) { var x; if (c) x = 5; else x = 5; return x + 1; } f(true);"
        graph = typed(source)
        run_constant_propagation(graph)
        returns = instrs(graph, mi.MReturn)
        assert isinstance(returns[0].operands[0], mi.MConstant)
        assert returns[0].operands[0].value == 6

    def test_loop_variant_not_folded(self):
        graph = typed(
            "function f(n) { var s = 0; for (var i = 0; i < n; i++) s += i; return s; } f(5);"
        )
        run_constant_propagation(graph)
        returns = instrs(graph, mi.MReturn)
        assert not isinstance(returns[0].operands[0], mi.MConstant)

    def test_folds_typeof_constant(self):
        graph = typed("function f(a) { return typeof a; } f(3);", param_values=[3])
        run_constant_propagation(graph)
        constants = [c.value for c in instrs(graph, mi.MConstant)]
        assert "number" in constants
        assert count(graph, mi.MTypeOf) == 0

    def test_folds_typeof_by_type_without_constant(self):
        graph = typed("function f(a) { return typeof a; } f(3);")
        run_constant_propagation(graph)
        # `a` is unboxed to Int32 by feedback, so typeof folds by type.
        constants = [c.value for c in instrs(graph, mi.MConstant)]
        assert "number" in constants

    def test_specialization_erases_type_guards(self):
        # Paper Figure 7(b): "We have folded the two type guards in
        # block L3" — guards on specialization constants disappear
        # (some during baseline simplification, the rest in constprop),
        # while the generic compile keeps them all.
        source = """
        function f(a, i) { return a[i]; }
        var arr = [1, 2, 3];
        f(arr, 1);
        """
        from repro.jsvm.objects import JSArray

        def guard_count(param_values):
            _top, code = compile_and_profile(source)
            graph = build_mir(code, feedback=code.feedback, param_values=param_values)
            specialize_types(graph)
            run_constant_propagation(graph)
            return count(graph, mi.MUnbox) + count(graph, mi.MTypeBarrier)

        generic_guards = guard_count(None)
        specialized_guards = guard_count([JSArray(ROOT, [1, 2, 3]), 1])
        assert specialized_guards < generic_guards

    def test_strict_equality_of_disjoint_types(self):
        graph = typed("function f(a, b) { return a === b; } f(1, 'x');")
        run_constant_propagation(graph)
        constants = [c.value for c in instrs(graph, mi.MConstant)]
        assert False in constants

    def test_folds_string_length(self):
        graph = typed(
            "function f(s) { return s.length; } f('hello');", param_values=["hello"]
        )
        run_constant_propagation(graph)
        constants = [c.value for c in instrs(graph, mi.MConstant)]
        assert 5 in constants

    def test_folds_pure_native_call(self):
        # A pure builtin passed as a parameter becomes a constant
        # callee whose constant-argument call folds at compile time.
        source = "function f(g, x) { return g(2, x); } f(Math.pow, 10);"
        _top, code = compile_and_profile(source, "f")
        from repro.jsvm.runtime import Runtime

        pow_fn = Runtime().globals["Math"].get("pow")
        graph = build_mir(code, feedback=code.feedback, param_values=[pow_fn, 10])
        specialize_types(graph)
        run_constant_propagation(graph)
        constants = [c.value for c in instrs(graph, mi.MConstant)]
        assert 1024 in constants
        assert count(graph, mi.MCall) == 0

    def test_never_folds_an_arrays_elements(self):
        # A baked-in array is a reference whose elements a store may
        # change: only identity, truthiness and typeof fold over one.
        from repro.jsvm.objects import JSArray

        def folded(body, *extra):
            xs = JSArray(ROOT, [7])
            source = "function f(a, b) { return %s; } f([7], [7]);" % body
            graph = typed(source, param_values=[xs, xs] if not extra else [xs, extra[0]])
            run_constant_propagation(graph)
            returned = instrs(graph, mi.MReturn)[0].operands[0]
            return returned.value if isinstance(returned, mi.MConstant) else None

        for body in ("a + ''", "a < 5", "-a", "a | 0", "a == 7", "a * 2"):
            assert folded(body) is None, body
        assert folded("a === b") is True
        assert folded("a == b") is True
        assert folded("a === b", JSArray(ROOT, [7])) is False
        assert folded("a == null") is False
        assert folded("typeof a") == "object"
        assert folded("!a") is False

    def test_impure_native_not_folded(self):
        source = "function f() { return Math.random(); } f();"
        graph = typed(source, param_values=[])
        run_constant_propagation(graph)
        assert count(graph, mi.MCall) == 1


class TestDCE:
    def test_removes_untaken_branch(self):
        source = "function f(c) { if (c) return 1; return 2; } f(true);"
        graph = typed(source, param_values=[True])
        run_constant_propagation(graph)
        blocks_before = len(graph.blocks)
        branches, blocks, _instructions = run_dce(graph)
        verify_graph(graph)
        assert branches >= 1
        assert len(graph.blocks) < blocks_before

    def test_keeps_function_entry(self):
        source = "function f(c) { if (c) return 1; return 2; } f(true);"
        graph = typed(source, param_values=[True])
        run_constant_propagation(graph)
        run_dce(graph)
        assert graph.entry in graph.blocks

    def test_removes_dead_pure_instructions(self):
        source = "function f(a, b) { var unused = a * b; return a; } f(2, 3);"
        graph = typed(source)
        before = graph.num_instructions()
        run_dce(graph)
        verify_graph(graph)
        assert graph.num_instructions() < before

    def test_keeps_stores(self):
        source = "function f(o) { o.x = 1; return 0; } f({});"
        graph = typed(source)
        run_dce(graph)
        assert count(graph, mi.MStoreProperty) == 1

    def test_keeps_calls(self):
        source = "function f(g) { g(); return 0; } f(function() { return 1; });"
        graph = typed(source)
        run_dce(graph)
        assert count(graph, mi.MCall) == 1

    def test_resume_point_uses_keep_values_alive(self):
        # A value only referenced by a guard's resume point must survive.
        source = "function f(a, i) { var x = a.length; return a[i] + x; } f([1,2], 0);"
        graph = typed(source)
        run_dce(graph)
        verify_graph(graph)


class TestGVN:
    def test_merges_congruent_arithmetic(self):
        source = "function f(a, b) { return (a + b) * (a + b); } f(1, 2);"
        graph = typed(source)
        merged = run_gvn(graph)
        verify_graph(graph)
        assert merged >= 1
        assert count(graph, mi.MBinaryArithI) == 2  # one add + one mul

    def test_merges_duplicate_constants(self):
        source = "function f(a) { return a + 7 + 7; } f(1);"
        graph = typed(source)
        run_gvn(graph)
        sevens = [c for c in instrs(graph, mi.MConstant) if c.value == 7]
        assert len(sevens) == 1

    def test_does_not_merge_across_non_dominating_paths(self):
        source = """
        function f(c, a, b) {
          var x;
          if (c) x = a + b; else x = a + b;
          return x;
        }
        f(true, 1, 2);
        """
        graph = typed(source)
        merged = run_gvn(graph)
        # Neither add dominates the other: no merge.
        assert count(graph, mi.MBinaryArithI) == 2

    def test_loads_not_merged(self):
        # arraylength is a heap load; GVN must not merge across stores.
        source = "function f(a) { var x = a.length; a[10] = 1; return x + a.length; } f([1]);"
        graph = typed(source)
        run_gvn(graph)
        assert count(graph, mi.MArrayLength) >= 2


class TestLoopInversion:
    def test_rotates_while(self):
        code = compile_source("function f(n) { var i = 0; while (i < n) i++; return i; }")
        target = [c for c in code.constants if hasattr(c, "instructions")][0]
        before = len(target.instructions)
        rotated = rotate_loops(target, recursive=False)
        assert rotated == 1
        assert len(target.instructions) > before  # duplicated test
        target.validate()

    def test_rotated_semantics_preserved(self):
        from repro.jsvm.interpreter import Interpreter

        source = """
        function f(n) { var s = 0, i = 0; while (i < n) { s += i; i++; } return s; }
        print(f(0), f(1), f(5));
        """
        code = compile_source(source)
        plain = Interpreter().run_code(code) or None
        plain_out = []
        interp = Interpreter()
        code2 = compile_source(source)
        interp.run_code(code2)
        plain_out = interp.runtime.printed
        rotated_interp = Interpreter()
        code3 = compile_source(source)
        rotate_loops(code3)
        rotated_interp.run_code(code3)
        assert rotated_interp.runtime.printed == plain_out == ["0 0 10"]

    def test_do_while_not_rotated(self):
        code = compile_source("function f(n) { var i = 0; do i++; while (i < n); return i; }")
        target = [c for c in code.constants if hasattr(c, "instructions")][0]
        assert rotate_loops(target, recursive=False) == 0

    def test_nested_loops_both_rotated(self):
        source = "function f(n) { var s = 0; var i = 0; while (i < n) { var j = 0; while (j < n) { s++; j++; } i++; } return s; }"
        code = compile_source(source)
        target = [c for c in code.constants if hasattr(c, "instructions")][0]
        assert rotate_loops(target, recursive=False) == 2
        target.validate()

    def test_loop_with_continue_rotates(self):
        from repro.jsvm.interpreter import Interpreter

        source = """
        function f(n) { var s = 0, i = 0; while (i < n) { i++; if (i % 2) continue; s += i; } return s; }
        print(f(10));
        """
        code = compile_source(source)
        rotate_loops(code)
        interp = Interpreter()
        interp.run_code(code)
        assert interp.runtime.printed == ["30"]

    def test_rotated_loop_shape_is_do_while(self):
        # After rotation + specialization, the MIR loop header should
        # have no in-loop exit (do-while shape), unlocking LICM.
        source = "function f(n) { var i = 0; while (i < n) i++; return i; } f(10);"
        graph = typed(source, rotate=True)
        from repro.opts.loops import find_loops

        loops = find_loops(graph)
        assert loops
        assert any(loop.is_do_while_shaped() for loop in loops)


class TestLICM:
    def test_hoists_invariant_arithmetic(self):
        source = """
        function f(n, a, b) {
          var s = 0;
          for (var i = 0; i < n; i++) s += a * b;
          return s;
        }
        f(10, 2, 3);
        """
        graph = typed(source)
        hoisted = run_licm(graph)
        verify_graph(graph)
        assert hoisted >= 1

    def test_does_not_hoist_loads_past_stores(self):
        source = """
        function f(n, a) {
          var s = 0;
          for (var i = 0; i < n; i++) { a[0] = i; s += a.length; }
          return s;
        }
        f(5, [1, 2]);
        """
        graph = typed(source)
        from repro.opts.loops import find_loops

        loops_before = {
            id(b) for loop in find_loops(graph) for b in loop.blocks
        }
        arraylengths = instrs(graph, mi.MArrayLength)
        run_licm(graph)
        # Loop contains a store: loads must stay inside.
        for length in arraylengths:
            assert id(length.block) in loops_before

    def test_hoists_variant_free_guarded_ops_only_when_guaranteed(self):
        # Non-rotated loop: faultable generic load must not be hoisted.
        source = """
        function f(n, o) {
          var s = 0;
          var i = 0;
          while (i < n) { s += o.k; i++; }
          return s;
        }
        f(3, {k: 1});
        """
        graph = typed(source)
        run_licm(graph)
        verify_graph(graph)


class TestBoundsCheckElimination:
    SOURCE = """
    function f(s) {
      var total = 0;
      for (var i = 2; i < 100; i++) total += s[i];
      return total;
    }
    var arr = [];
    for (var k = 0; k < 100; k++) arr[k] = k;
    f(arr);
    """

    def _specialized_graph(self):
        from repro.jsvm.objects import JSArray

        _top, code = compile_and_profile(self.SOURCE, "f")
        array = JSArray(ROOT, list(range(100)))
        graph = build_mir(code, feedback=code.feedback, param_values=[array])
        specialize_types(graph)
        run_constant_propagation(graph)
        return graph

    def test_eliminates_with_constant_array_and_bounds(self):
        graph = self._specialized_graph()
        assert count(graph, mi.MBoundsCheck) == 1
        removed = run_bounds_check_elimination(graph)
        verify_graph(graph)
        assert removed == 1
        assert count(graph, mi.MBoundsCheck) == 0

    def test_not_eliminated_without_specialization(self):
        _top, code = compile_and_profile(self.SOURCE, "f")
        graph = build_mir(code, feedback=code.feedback)
        specialize_types(graph)
        run_constant_propagation(graph)
        removed = run_bounds_check_elimination(graph)
        assert removed == 0  # array length unknown at compile time

    def test_not_eliminated_when_index_may_exceed(self):
        from repro.jsvm.objects import JSArray

        source = self.SOURCE.replace("i < 100", "i < 200")
        _top, code = compile_and_profile(source, "f")
        graph = build_mir(code, feedback=code.feedback, param_values=[JSArray(ROOT, list(range(100)))])
        specialize_types(graph)
        run_constant_propagation(graph)
        assert run_bounds_check_elimination(graph) == 0

    def test_generic_store_blocks_elimination(self):
        from repro.jsvm.objects import JSArray, JSObject

        source = """
        function f(s, o) {
          var total = 0;
          for (var i = 0; i < 10; i++) { o[i] = 1; total += s[i]; }
          return total;
        }
        f([0,1,2,3,4,5,6,7,8,9], "notanobject");
        """
        _top, code = compile_and_profile(source, "f")
        graph = build_mir(
            code,
            feedback=code.feedback,
            param_values=[JSArray(ROOT, list(range(10))), "notanobject"],
        )
        specialize_types(graph)
        run_constant_propagation(graph)
        # The generic setelem on `o` may resize arrays: give up.
        if count(graph, mi.MSetElemV) > 0:
            assert run_bounds_check_elimination(graph) == 0


class TestInlining:
    MAP_SOURCE = """
    function inc(x) { return x + 1; }
    function map(s, b, n, f) {
      var i = b;
      while (i < n) { s[i] = f(s[i]); i++; }
      return s;
    }
    map([1, 2, 3, 4, 5], 2, 5, inc);
    """

    def _specialized_map(self):
        from repro.jsvm.objects import JSArray
        from repro.jsvm.values import JSFunction

        top, code = compile_and_profile(self.MAP_SOURCE, "map")
        inc_code = [
            c for c in top.constants if hasattr(c, "instructions") and c.name == "inc"
        ][0]
        inc_function = JSFunction(inc_code, ())
        array = JSArray(ROOT, [1, 2, 3, 4, 5])
        graph = build_mir(
            code, feedback=code.feedback, param_values=[array, 2, 5, inc_function]
        )
        return graph

    def test_inlines_closure_parameter(self):
        graph = self._specialized_map()
        assert count(graph, mi.MCall) == 1
        inlined = run_inlining(graph)
        verify_graph(graph)
        assert inlined == 1
        assert count(graph, mi.MCall) == 0

    def test_inlined_guards_resume_at_call(self):
        graph = self._specialized_map()
        call = instrs(graph, mi.MCall)[0]
        call_pc = call.resume_point.pc
        run_inlining(graph)
        # The inlined body's guards (inc's add) restart the whole CALL;
        # the caller's own result barrier may stay "after"-mode.
        at_call = [
            instruction
            for instruction in graph.all_instructions()
            if instruction.is_guard
            and instruction.resume_point is not None
            and instruction.resume_point.pc == call_pc
            and instruction.resume_point.mode == "at"
        ]
        assert at_call, "inlined guards should adopt the call's resume point"

    def test_effectful_callee_not_inlined(self):
        from repro.jsvm.values import JSFunction

        source = """
        function logger(x) { someGlobal = x; return x; }
        function host(f) { return f(1); }
        host(logger);
        """
        top, code = compile_and_profile(source, "host")
        logger_code = [
            c for c in top.constants if hasattr(c, "instructions") and c.name == "logger"
        ][0]
        graph = build_mir(
            code, feedback=code.feedback, param_values=[JSFunction(logger_code, ())]
        )
        assert run_inlining(graph) == 0

    def test_callee_with_calls_not_inlined(self):
        from repro.jsvm.values import JSFunction

        source = """
        function wrapper(x) { return Math.floor(x); }
        function host(f) { return f(1.5); }
        host(wrapper);
        """
        top, code = compile_and_profile(source, "host")
        wrapper_code = [
            c for c in top.constants if hasattr(c, "instructions") and c.name == "wrapper"
        ][0]
        graph = build_mir(
            code, feedback=code.feedback, param_values=[JSFunction(wrapper_code, ())]
        )
        assert run_inlining(graph) == 0

    def test_non_constant_callee_not_inlined(self):
        graph, _code = built(self.MAP_SOURCE, "map")
        assert run_inlining(graph) == 0


class TestFullPipeline:
    def test_pipeline_all_configs_produce_valid_graphs(self):
        source = """
        function kernel(a, b, n) {
          var s = 0;
          for (var i = 0; i < n; i++) s += (a * i + b) & 255;
          return s;
        }
        kernel(3, 5, 50);
        """
        from repro.engine.config import PAPER_CONFIGS

        for config in [BASELINE, FULL_SPEC] + PAPER_CONFIGS:
            _top, code = compile_and_profile(source, "kernel")
            if config.loop_inversion:
                rotate_loops(code)
            params = [3, 5, 50] if config.param_spec else None
            graph = build_mir(code, feedback=code.feedback, param_values=params)
            optimize(graph, config, loop_inversion_applied=config.loop_inversion)
            verify_graph(graph)

    def test_specialized_graph_is_smaller(self):
        # Figure 10's mechanism: specialization + folding shrinks code.
        source = """
        function kernel(a, b, n) {
          var s = 0;
          for (var i = 0; i < n; i++) s += (a * i + b) & 255;
          return s;
        }
        kernel(3, 5, 50);
        """
        _top, code = compile_and_profile(source, "kernel")
        baseline_graph = build_mir(code, feedback=code.feedback)
        optimize(baseline_graph, BASELINE)
        spec_graph = build_mir(code, feedback=code.feedback, param_values=[3, 5, 50])
        optimize(spec_graph, FULL_SPEC)
        assert spec_graph.num_instructions() < baseline_graph.num_instructions()


class TestConstPropTermination:
    """Regression tests for fixpoint termination (NaN constants used to
    flap the `changed` flag forever; bottom-as-top evaluation could
    double folded strings every round)."""

    def test_nan_producing_fold_terminates(self):
        source = 'function f(a, b) { var c = a * b; return "" + c; } f("k", 2);'
        graph = typed(source, param_values=["k", 2])
        run_constant_propagation(graph)  # must not hang
        constants = [c.value for c in instrs(graph, mi.MConstant)]
        assert "NaN" in constants

    def test_negative_zero_constant_preserved(self):
        source = "function f(a) { return 1 / (a * 0); } f(-3);"
        graph = typed(source, param_values=[-3])
        run_constant_propagation(graph)
        constants = [c.value for c in instrs(graph, mi.MConstant)]
        assert float("-inf") in constants  # 1 / -0 folded correctly

    def test_string_folding_is_bounded(self):
        # A doubling chain must stop folding at the size cap instead of
        # materializing enormous compile-time strings.
        body = "\n".join("s = s + s;" for _ in range(24))
        source = 'function f(s) { %s return s.length; } f("xy");' % body
        graph = typed(source, param_values=["xy"])
        run_constant_propagation(graph)
        for constant in instrs(graph, mi.MConstant):
            if isinstance(constant.value, str):
                assert len(constant.value) <= 8192

    def test_differential_after_bounded_folding(self):
        from tests.conftest import FAST, assert_same_output

        body = "\n".join("s = s + s;" for _ in range(16))
        source = """
        function f(s) { %s return s.length; }
        var r = 0;
        for (var i = 0; i < 25; i++) r = f("xy");
        print(r);
        """ % body
        assert_same_output(source, **FAST)
