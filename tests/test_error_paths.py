"""Failure injection: guest errors must behave identically in every tier.

Also pins down the *syntax*-error contract: every lexer/parser
diagnostic carries the precise ``line``/``column`` of the offending
construct (the opening delimiter for unterminated ones), so shrunk
fuzzer reproducers and user scripts alike get actionable positions.
"""

import pytest

from repro import BASELINE, FULL_SPEC, Engine
from repro.errors import JSRangeError, JSReferenceError, JSSyntaxError, JSTypeError
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.parser import parse
from repro.telemetry.metrics import metrics_payload

from tests.conftest import FAST


def error_from(source, runner):
    with pytest.raises((JSTypeError, JSReferenceError, JSRangeError)) as info:
        runner(source)
    return type(info.value)


def interp(source):
    Interpreter().run_source(source)


def engine(config):
    def runner(source):
        Engine(config=config, **FAST).run_source(source)

    return runner


class TestErrorsMatchAcrossTiers:
    def check(self, source):
        expected = error_from(source, interp)
        for config in (BASELINE, FULL_SPEC):
            assert error_from(source, engine(config)) is expected

    def test_property_of_undefined_in_hot_code(self):
        # The function runs natively for a while, then the error path
        # is injected by switching the argument to undefined.
        self.check(
            """
            function f(o) { return o.x; }
            var r = 0;
            for (var i = 0; i < 30; i++) r = f({x: i});
            f(undefined);
            """
        )

    def test_property_of_null_via_element(self):
        self.check(
            """
            function f(a, i) { return a[i]; }
            var arr = [1, 2, 3];
            for (var k = 0; k < 30; k++) f(arr, 1);
            f(null, 0);
            """
        )

    def test_calling_non_function_mid_loop(self):
        self.check(
            """
            function apply(g, x) { return g(x); }
            function id(x) { return x; }
            for (var i = 0; i < 30; i++) apply(id, i);
            apply(42, 1);
            """
        )

    def test_missing_global_in_native_code(self):
        self.check(
            """
            function f(flag) { return flag ? definitelyMissing : 1; }
            for (var i = 0; i < 30; i++) f(false);
            f(true);
            """
        )

    def test_guest_recursion_limit_native(self):
        self.check(
            """
            function f(n) { return n <= 0 ? 0 : f(n - 1) + 1; }
            for (var i = 0; i < 30; i++) f(10);
            f(100000);
            """
        )

    def test_in_operator_on_primitive(self):
        self.check(
            """
            function f(o) { return 'k' in o; }
            for (var i = 0; i < 30; i++) f({k: 1});
            f(5);
            """
        )


class TestEngineSurvivesErrors:
    def test_engine_usable_after_guest_error(self):
        e = Engine(config=FULL_SPEC, **FAST)
        with pytest.raises(JSReferenceError):
            e.run_source("print(missingGlobal);")
        # Note: run_source compiles fresh code; the engine object
        # remains consistent and can run another script.
        assert e.run_source("print(1 + 1);")[-1] == "2"

    def test_stats_consistent_after_error(self):
        e = Engine(config=FULL_SPEC, **FAST)
        with pytest.raises(JSTypeError):
            e.run_source(
                """
                function f(o) { return o.x; }
                for (var i = 0; i < 30; i++) f({x: 1});
                f(null);
                """
            )
        summary = e.stats.summary()
        assert summary["total_cycles"] > 0

    def test_the_ledger_is_live_after_a_guest_error(self):
        # A hot function runs natively, then the guest throws before
        # the run can end; the ledger reads the interpreter's and the
        # executor's counters where they are kept, so it is still exact.
        engine = Engine(config=FULL_SPEC)
        with pytest.raises(JSReferenceError):
            engine.run_source(
                "function f(n) { var s = 0; for (var i = 0; i < n; i++) s += i; return s; }\n"
                "var t = 0; for (var k = 0; k < 50; k++) t += f(200);\n"
                "print(t);\n"
                "missingGlobal();\n"
            )
        assert engine.interpreter.runtime.printed == ["995000"]
        stats = engine.stats
        payload = metrics_payload(engine)
        assert stats.total_cycles == payload["gauges"]["repro_engine_total_cycles"]
        assert stats.interp_ops == engine.interpreter.ops_executed
        assert stats.native_cycles == engine.executor.cycles > 0


def syntax_error_at(source):
    """Parse ``source``, returning the raised error's (line, column)."""
    with pytest.raises(JSSyntaxError) as info:
        parse(source)
    error = info.value
    assert error.line is not None and error.column is not None
    assert "(line %d, column %d)" % (error.line, error.column) in str(error)
    return error.line, error.column


class TestSyntaxErrorPositions:
    def test_unterminated_string_blames_opening_quote(self):
        assert syntax_error_at('var a = 1;\nvar s = "oops;\n') == (2, 9)

    def test_unterminated_single_quoted_string(self):
        assert syntax_error_at("print('never closed") == (1, 7)

    def test_newline_in_string_blames_opening_quote(self):
        assert syntax_error_at('var s = "a\nb";') == (1, 9)

    def test_unterminated_comment_blames_opening(self):
        assert syntax_error_at("var a = 1;\n/* runs off the end\nvar b;") == (2, 1)

    def test_bad_character_position(self):
        assert syntax_error_at("var a = 1;\nvar b = 2 # 3;") == (2, 11)

    def test_malformed_hex_literal_position(self):
        assert syntax_error_at("var bad = 0xZZ;") == (1, 13)

    def test_unbalanced_braces_blame_the_opener(self):
        # The unmatched "{" (line 2, column 17) is reported, not EOF.
        source = "var a = 1;\nfunction f(x) { return x;\nvar b = 2;\n"
        assert syntax_error_at(source) == (2, 15)

    def test_nested_unbalanced_braces_blame_unmatched_opener(self):
        # The if-block's brace is matched by the "}" on line 4; the
        # function body's opener is the one left dangling.
        source = "function f() {\n  if (true) {\n  return 1;\n}\n"
        line, column = syntax_error_at(source)
        assert (line, column) == (1, 14)

    def test_stray_closing_brace_position(self):
        assert syntax_error_at("var a = 1;\n}\n") == (2, 1)

    def test_missing_paren_at_eof_has_position(self):
        line, column = syntax_error_at("print(1 + 2")
        assert line == 1 and column == 12

    def test_expected_semicolon_position(self):
        assert syntax_error_at("var a = 1 var b = 2;") == (1, 11)
