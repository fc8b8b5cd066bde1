"""The whole-binary backend's contract, enforced end to end.

The ``whole`` backend (docs/CODEGEN.md) compiles each specialized
binary to a single generated Python function.  Its contract is the
same bit-identity rule the closure backend lives under — for any
program and configuration, ``EngineStats``, cycle counts, printed
output and trace streams must equal the reference executor's exactly —
plus exact profiler attribution and marshalled-module round trips
through the persistent cache as link records (tests/test_whole_link.py
holds the record's own property tests).

The three-way sweep below runs **every** benchmark of every suite
through all three backends; this is the acceptance check behind
hostbench's per-backend seconds being comparable at all.
"""

import gc
import marshal
import re

import pytest

from repro.cache import DiskCodeCache
from repro.engine.bailout import GuardFaultInjector
from repro.engine.config import CostModel, FULL_SPEC
from repro.engine.jit import compile_function
from repro.engine.runtime_engine import Engine
from repro.engine.stats import DISK_TRAFFIC_KEYS
from repro.errors import ReproError
from repro.fuzz.oracle import CHAOS_BAILOUT_LIMIT
from repro.jsvm.bytecode import CodeObject
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.values import UNDEFINED, NativeFunction
from repro.lir import wholefn
from repro.lir.native import FAULT_INJECTED, guard_indices
from repro.lir.wholefn import WholeExecutor, compile_whole, whole_artifact
from repro.telemetry.profiler import CycleProfiler
from repro.telemetry.tracing import Tracer
from repro.workloads import ALL_SUITES

from tests.conftest import FAST
from tests.helpers import compile_and_profile
from tests.test_executor_backends import _normalized

ALL_BENCHMARKS = [
    (suite_name, benchmark.name)
    for suite_name, suite in ALL_SUITES.items()
    for benchmark in suite
]

TRACE_SUBSET = [
    ("sunspider", "access-nsieve"),
    ("v8", "splay"),
    ("kraken", "stanford-crypto-ccm"),
    ("objects", "shape-churn"),
]


def _bench_source(suite_name, bench_name):
    for benchmark in ALL_SUITES[suite_name]:
        if benchmark.name == bench_name:
            return benchmark.source
    raise AssertionError("no benchmark %s/%s" % (suite_name, bench_name))


def _observables(source, backend, trace=False, **engine_kwargs):
    """One fresh-engine run; returns (observables, trace events or None).

    Code ids are a process-global counter, reset before each run to
    keep every id-carrying observable comparable.
    """
    CodeObject._next_id = 1
    tracer = Tracer() if trace else None
    engine = Engine(
        config=FULL_SPEC, executor_backend=backend, tracer=tracer, **engine_kwargs
    )
    printed = engine.run_source(source)
    stats = {
        key: value
        for key, value in vars(engine.stats).items()
        if isinstance(value, (int, float, str, bool, tuple, list, dict))
    }
    observables = {
        "printed": list(printed),
        "stats": stats,
        "summary": engine.stats.summary(),
        "cycles": engine.executor.cycles,
        "native_instructions": engine.executor.instructions_executed,
        "interp_ops": engine.interpreter.ops_executed,
    }
    return observables, (list(tracer.events) if tracer is not None else None)


class TestThreeWayBitIdentity:
    """Every suite benchmark: simple vs closure vs whole, all observables."""

    @pytest.mark.parametrize("suite_name,bench_name", ALL_BENCHMARKS)
    def test_benchmark_bit_identical(self, suite_name, bench_name):
        source = _bench_source(suite_name, bench_name)
        reference, _ = _observables(source, "simple")
        closure, _ = _observables(source, "closure")
        whole, _ = _observables(source, "whole")
        assert closure == reference
        assert whole == reference

    @pytest.mark.parametrize("suite_name,bench_name", TRACE_SUBSET)
    def test_trace_streams_identical(self, suite_name, bench_name):
        source = _bench_source(suite_name, bench_name)
        reference, ref_events = _observables(source, "simple", trace=True)
        whole, whl_events = _observables(source, "whole", trace=True)
        assert whole == reference
        assert _normalized(whl_events) == _normalized(ref_events)


def _spy_translations(monkeypatch):
    """Record ``(native, roots, source)`` of every ``compile_whole`` call."""
    seen = []
    real = wholefn.compile_whole

    def spy(native, executor, profiled=False, capture=None, roots=None):
        capture = {} if capture is None else capture
        result = real(native, executor, profiled=profiled, capture=capture, roots=roots)
        seen.append((native, roots, capture["source"]))
        return result

    monkeypatch.setattr(wholefn, "compile_whole", spy)
    return seen


def _deep_loop_nest(depth):
    """A guest function with ``depth`` nested single-iteration loops.

    The static loop *structure* is what overflows CPython's 20-block
    compiler limit — trip counts are irrelevant to the generated
    nesting — so each level runs once and the whole call is cheap.
    """
    body = "s = s + 1;"
    for level in range(depth):
        body = "for (var i%d = 0; i%d < 1; i%d++) { %s }" % (
            level,
            level,
            level,
            body,
        )
    return (
        "function f() { var s = 0; %s return s; }"
        " for (var k = 0; k < 8; k++) print(f());" % body
    )


class TestDeepLoopNesting:
    """Loop trees past _MAX_LOOP_DEPTH flatten instead of tripping
    CPython's 20-block compiler limit."""

    def test_deeper_than_host_block_limit(self, monkeypatch):
        source = _deep_loop_nest(25)
        reference, _ = _observables(source, "simple", **FAST)
        translations = _spy_translations(monkeypatch)
        whole, _ = _observables(source, "whole", **FAST)
        assert whole == reference
        assert reference["printed"] == ["1"] * 8
        assert reference["stats"]["compiles"] > 0
        # The nest is emitted one space per level: no line steps in by
        # more than one column, and 14 materialized loops stay shallow.
        deepest = 0
        for _native, _roots, text in translations:
            previous = 0
            for line in text.split("\n"):
                indent = len(line) - len(line.lstrip(" "))
                assert indent <= previous + 1, line
                previous = indent
                deepest = max(deepest, indent)
        assert 2 * wholefn._MAX_LOOP_DEPTH <= deepest < 4 * wholefn._MAX_LOOP_DEPTH

    def test_global_reads_inside_the_deepest_loop(self):
        """A global read is a ``try`` of its own, one more nested block
        inside the materialized loops: still under the host's limit."""
        body = "s = s + g;"
        for level in range(25):
            body = "for (var i%d = 0; i%d < 1; i%d++) { %s }" % (level, level, level, body)
        source = (
            "var g = 1; var s = 0; var w = 0; for (var q = 0; q < 150; q++) w += 1;"
            " for (var k = 0; k < 3; k++) { %s } print(s);" % body
        )
        whole = _both(source)
        assert whole["printed"] == ["3"] and whole["stats"]["compiles"] == 1


#: A page-shaped script: a straight-line prologue (function definitions
#: and one-off calls), then a second top-level loop hot enough to OSR.
SCRIPT_WITH_PROLOGUE = """
function sq(a) { return a * a; }
function inc(a) { return a + 1; }
var t = sq(3) + inc(4);
for (var i = 0; i < 4; i++) t += inc(i);
var s = 0;
for (var j = 0; j < 40; j++) s += sq(j % 5) + t;
print(s);
"""


def _translated(native):
    """Region leaders of ``native``'s installed whole translation."""
    prefix = native.whole_cache[6]
    return [label for label, costs in enumerate(prefix) if costs is not None]


def _script_native(engine):
    natives = [
        state.native
        for state in engine.states.values()
        if state.code.is_script and state.native is not None
    ]
    assert len(natives) == 1
    return natives[0]


def _count_host_compiles(monkeypatch):
    """Count host ``compile()`` calls made by the whole backend."""
    calls = []

    def counting_compile(source, filename, mode):
        calls.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(wholefn, "compile", counting_compile, raising=False)
    return calls


class TestEntryRootedTranslation:
    """Only regions reachable from the entries a binary can be entered
    at are translated; anything else is translated on demand."""

    def _run(self, backend):
        CodeObject._next_id = 1
        engine = Engine(config=FULL_SPEC, executor_backend=backend, **FAST)
        printed = list(engine.run_source(SCRIPT_WITH_PROLOGUE))
        return engine, printed

    @staticmethod
    def _clock(engine):
        return (
            list(engine.interpreter.runtime.printed),
            engine.executor.cycles,
            engine.executor.instructions_executed,
            engine.stats.as_dict(),
        )

    def test_script_binary_is_rooted_at_its_osr_entry(self):
        reference, ref_printed = self._run("simple")
        whole, printed = self._run("whole")
        assert printed == ref_printed
        assert self._clock(whole) == self._clock(reference)

        native = _script_native(whole)
        assert native.osr_index is not None
        assert wholefn.translation_roots(native, whole.executor) == (native.osr_index,)
        # No region of the prologue: nothing before the OSR entry, which
        # the bottom-of-binary phi trampolines and the loop itself follow.
        labels = _translated(native)
        assert native.entry_index not in labels
        assert min(labels) == native.osr_index
        assert len(labels) < len(wholefn._region_labels(native))

        # Entering at ``entry`` anyway widens the translation and runs.
        ref_native = _script_native(reference)
        for engine, binary in ((reference, ref_native), (whole, native)):
            engine.executor.run(binary, None, UNDEFINED, [])
        assert native.entry_index in _translated(native)
        assert self._clock(whole) == self._clock(reference)
        assert len(whole.interpreter.runtime.printed) == 2

    def test_script_module_survives_the_disk_cache(self, tmp_path, monkeypatch):
        def run_cached():
            CodeObject._next_id = 1
            engine = Engine(
                config=FULL_SPEC,
                executor_backend="whole",
                code_cache=DiskCodeCache(root=str(tmp_path)),
                **FAST
            )
            return engine, list(engine.run_source(SCRIPT_WITH_PROLOGUE))

        cold, cold_printed = run_cached()
        assert cold.code_cache.stores > 0
        # Leave the stored module as the only way around host compile().
        wholefn._MODULE_CODE_MEMO.clear()
        host_compiles = _count_host_compiles(monkeypatch)
        warm, warm_printed = run_cached()
        assert warm.code_cache.hits == cold.code_cache.stores
        assert warm_printed == cold_printed
        # Every binary (the script's included) linked its stored module:
        # the emitter never ran and nothing was compiled again.
        assert warm.executor.modules_emitted == 0
        assert warm.executor.modules_linked == warm.code_cache.hits
        assert host_compiles == []
        script = _script_native(warm)
        assert script.disk_whole["roots"] == (script.osr_index,)
        assert _translated(script) == _translated(_script_native(cold))

        def simulated(ledger):
            return {k: v for k, v in ledger.items() if k not in DISK_TRAFFIC_KEYS}

        assert simulated(warm.stats.as_dict()) == simulated(cold.stats.as_dict())
        assert simulated(warm.stats.summary()) == simulated(cold.stats.summary())

    def test_function_binary_keeps_both_entries(self, monkeypatch):
        source = (
            "function run(n) { var s = 0;"
            " for (var i = 0; i < n; i++) s += i * 2; return s; }"
            " print(run(60)); print(run(60)); print(run(61));"
        )
        reference, _ = _observables(source, "simple", **FAST)
        translations = _spy_translations(monkeypatch)
        whole, _ = _observables(source, "whole", **FAST)
        assert whole == reference
        # OSR-compiled inside the first call, then entered at ``entry``
        # by the later calls: one translation, both entries in it.
        entered_both = [
            native
            for native, _roots, _text in translations
            if native.code.name == "run" and native.osr_index is not None
        ]
        assert entered_both
        for native in entered_both:
            assert [n for n, _r, _t in translations].count(native) == 1
            labels = _translated(native)
            assert native.entry_index in labels and native.osr_index in labels
        assert all(roots is None for _native, roots, _text in translations)


class TestModuleCodeMemo:
    """The process-wide memo: digest-keyed, byte-bounded, source-free."""

    SOURCE = (
        "function a(x) { return x + 1; } function b(x) { return x * 2; }"
        " function c(x) { return x - 3; } var s = 0;"
        " for (var i = 0; i < 30; i++) s += a(i) + b(i) + c(i); print(s);"
    )

    def test_fresh_engines_share_one_compile_per_module(self, monkeypatch):
        wholefn._MODULE_CODE_MEMO.clear()
        host_compiles = _count_host_compiles(monkeypatch)
        translations = _spy_translations(monkeypatch)
        first, _ = _observables(self.SOURCE, "whole", **FAST)
        distinct = len(set(text for _n, _r, text in translations))
        assert len(host_compiles) == distinct > 1
        second, _ = _observables(self.SOURCE, "whole", **FAST)
        assert second == first
        assert len(host_compiles) == distinct  # every module a memo hit
        assert len(translations) > distinct

    def test_retained_bytes_stay_under_the_budget(self, monkeypatch):
        memo = wholefn._ModuleCodeMemo(budget=4000)
        monkeypatch.setattr(wholefn, "_MODULE_CODE_MEMO", memo)
        high_water = []
        real = memo.compiled

        def watched(source, filename):
            code = real(source, filename)
            high_water.append(memo.retained)
            return code

        monkeypatch.setattr(memo, "compiled", watched)
        translations = _spy_translations(monkeypatch)
        expect, _ = _observables(self.SOURCE, "simple", **FAST)
        got, _ = _observables(self.SOURCE, "whole", **FAST)
        assert got == expect
        blobs = [len(marshal.dumps(compile(text, "m", "exec"))) for _n, _r, text in translations]
        assert sum(blobs) > memo.budget  # the run overflowed it
        assert max(blobs) > memo.budget > min(blobs)  # and one never fit
        assert 0 < max(high_water) <= memo.budget
        assert 0 < len(memo) < len(blobs)

    def test_memo_holds_no_source_text(self, monkeypatch):
        wholefn._MODULE_CODE_MEMO.clear()
        translations = _spy_translations(monkeypatch)
        _observables(self.SOURCE, "whole", **FAST)
        sources = set(text for _n, _r, text in translations)
        assert len(wholefn._MODULE_CODE_MEMO) == len(sources)
        pending = [wholefn._MODULE_CODE_MEMO]
        seen = set()
        while pending:
            thing = pending.pop()
            if id(thing) in seen or isinstance(thing, type):
                continue
            seen.add(id(thing))
            if isinstance(thing, str):
                assert thing not in sources
            elif isinstance(thing, bytes):
                assert not any(text.encode("utf-8") in thing for text in sources)
            else:
                pending.extend(gc.get_referents(thing))


class TestExactAttribution:
    """Every cycle charged by the whole backend lands in the profiler."""

    @pytest.mark.parametrize("suite_name,bench_name", TRACE_SUBSET)
    def test_attributed_equals_total(self, suite_name, bench_name):
        source = _bench_source(suite_name, bench_name)
        CodeObject._next_id = 1
        profiler = CycleProfiler()
        engine = Engine(
            config=FULL_SPEC, executor_backend="whole", cycle_profiler=profiler
        )
        engine.run_source(source)
        assert profiler.attributed_cycles() == engine.stats.total_cycles


CHAOS_SOURCES = [
    # Arithmetic + calls: overflow and entry type guards.
    "function f(a, b) { var s = 0; for (var i = 0; i < 200; i++)"
    " s = s + a * 3 + b; return s; } print(f(2, 5)); print(f(2.5, 5));",
    # Shape-guarded property access: guardshape recovery.
    "function mk(x) { return {a: x, b: x + 1}; }"
    " function get(o) { return o.a + o.b; }"
    " var t = 0; for (var i = 0; i < 120; i++) t += get(mk(i));"
    " var odd = {b: 1, a: 2}; t += get(odd); print(t);",
]


class TestChaosGuardRecovery:
    """Full chaos on the whole backend: every executed guard forced
    once, output unchanged, forensics blaming the injector."""

    @pytest.mark.parametrize("source", CHAOS_SOURCES)
    def test_chaos_recovers(self, source):
        expect, _ = _observables(source, "whole", **FAST)
        CodeObject._next_id = 1
        injector = GuardFaultInjector()
        profiler = CycleProfiler()
        engine = Engine(
            config=FULL_SPEC,
            executor_backend="whole",
            bailout_limit=CHAOS_BAILOUT_LIMIT,
            fault_injector=injector,
            cycle_profiler=profiler,
            **FAST
        )
        got = engine.run_source(source)
        assert got == expect["printed"]
        assert injector.fired, "chaos run forced no guards at all"
        known = len(profiler.binaries)
        for native, fired, _guards in injector.coverage():
            # A record holds a twin of its binary: look it up, don't match ids.
            record = profiler.native_profile(native)
            assert len(profiler.binaries) == known
            for index in fired:
                entry = record.forensics.get(index)
                assert entry is not None, "no forensics for guard %d" % index
                assert entry["reason"] == FAULT_INJECTED


def _compiled_native(source):
    _top, code = compile_and_profile(source)
    result = compile_function(code, FULL_SPEC, feedback=code.feedback)
    return result.native


class TestModuleRoundTrip:
    """whole_artifact → disk_whole → compile_whole: the stored module is
    linked while the record's facts hold, and emitted afresh otherwise."""

    @staticmethod
    def _marshal_spy(monkeypatch, loads):
        monkeypatch.setattr(
            wholefn,
            "marshal",
            type("Marshal", (), {
                "loads": staticmethod(loads), "dumps": staticmethod(marshal.dumps),
            }),
        )

    def test_marshalled_module_linked_when_the_record_holds(self, monkeypatch):
        native = _compiled_native("function f(a) { return a + 1; } f(1); f(2);")
        executor = WholeExecutor(Interpreter(), CostModel())
        record = whole_artifact(native, executor)
        assert record is not None
        assert "source" not in record
        assert isinstance(record["code"], bytes)
        assert record["roots"] == wholefn.translation_roots(native, executor)
        emitted = native.whole_cache

        loads_calls = []

        def loads(blob):
            loads_calls.append(len(blob))
            return marshal.loads(blob)

        self._marshal_spy(monkeypatch, loads)
        native.whole_cache = None
        native.disk_whole = wholefn.checked_link_record(native, record)
        fresh = WholeExecutor(Interpreter(), CostModel())
        fn, counts, sums, prefix = compile_whole(native, fresh)
        assert loads_calls == [len(record["code"])]
        assert (fresh.modules_linked, fresh.modules_emitted) == (1, 0)
        assert fn.__code__ == emitted[3].__code__
        assert (counts, sums, prefix) == emitted[4:7]
        assert fresh.run(native, None, UNDEFINED, [41]) == 42

    def test_refused_record_falls_back_to_emission(self, monkeypatch):
        native = _compiled_native("function f(a) { return a * 2; } f(3); f(4);")
        executor = WholeExecutor(Interpreter(), CostModel())
        record = whole_artifact(native, executor)
        assert record is not None

        def loads(blob):
            raise AssertionError("linked a record whose facts do not hold")

        self._marshal_spy(monkeypatch, loads)
        native.whole_cache = None
        native.disk_whole = dict(record, emitter=b"another emitter")
        # Empty the memo too, so the only blob in reach is the stale one.
        wholefn._MODULE_CODE_MEMO.clear()
        executor_fresh = WholeExecutor(Interpreter(), CostModel())
        assert executor_fresh.run(native, None, UNDEFINED, [21]) == 42
        assert (executor_fresh.modules_linked, executor_fresh.modules_emitted) == (0, 1)

    def test_artifact_refused_when_instrumented(self):
        native = _compiled_native("function f(a) { return a - 1; } f(1); f(2);")
        chaotic = WholeExecutor(Interpreter(), CostModel())
        chaotic.fault_injector = GuardFaultInjector()
        assert whole_artifact(native, chaotic) is None
        profiled = WholeExecutor(Interpreter(), CostModel())
        profiled.cycle_profiler = CycleProfiler()
        assert whole_artifact(native, profiled) is None


# -- host-typed code (docs/CODEGEN.md, "The host-type map") ----------------------

#: Edge values as guest expressions: signed zeros, the int32 bounds and
#: the first double past them, a fraction, NaN, the infinities, and one
#: value of every non-number kind.
EDGE_VALUES = [
    "0", "-0", "1", "-1", "2147483647", "-2147483648", "2147483648", "0.5",
    "0 / 0", "Infinity", "-Infinity", "true", "'7'", "''", "'x'",
    "undefined", "null", "{p: 1}", "[1, 2]",
]
EDGE_NUMBERS = EDGE_VALUES[:11]

BINARY_OPERATORS = ["+", "-", "|", "&", "^", "<<", ">>", ">>>", "%", "/"]

#: Run the script's first loop hot, so the rest of it — compiled into
#: the same binary, with no feedback yet — is untyped LIR.
OSR_PRELUDE = "var warm = 0; for (var w = 0; w < 150; w++) warm += 1;\n"


def show(expression):
    """Guest text appending a result to ``out`` so that -0 shows."""
    return "r = %s; out += r + ':' + (1 / r) + ' ';" % expression


def _both(source, **engine_kwargs):
    reference, _ = _observables(source, "simple", **engine_kwargs)
    whole, _ = _observables(source, "whole", **engine_kwargs)
    assert whole == reference
    return whole


class TestInlineArmsOnEdgeValues:
    """Every operator that gained an inline arm, on every edge value, in
    untyped and typed position: output, cycles and instruction counts
    equal ``simple``'s."""

    def test_generic_operators_over_the_cross_product(self, monkeypatch):
        body = "".join(show("a %s b" % operator) for operator in BINARY_OPERATORS)
        # An int that left int32 must have become a double: the inline
        # int arms downstream take any Python int at its word.
        body += show("(a + b) | 0") + show("(a - b) | 0") + show("(a + b) >>> 1")
        source = (
            "var vals = [%s];\nvar out = ''; var r;\n" % ", ".join(EDGE_VALUES)
            + OSR_PRELUDE
            + "for (var i = 0; i < vals.length; i++) {"
            " for (var j = 0; j < vals.length; j++) {"
            " var a = vals[i]; var b = vals[j]; %s } out += '|'; }\nprint(out);" % body
        )
        translations = _spy_translations(monkeypatch)
        whole = _both(source)
        assert whole["stats"]["compiles"] > 0
        text = "\n".join(text for _n, _r, text in translations)
        # Both arms of each new template are in the code that ran.
        for fragment in (
            " | ", " & ", " ^ ", " << (", " >> (", ") >> (", " % ", " / ",
            "_binary('BITOR'", "_binary('SHL'", "_binary('USHR'", "_binary('MOD'",
            "_binary('DIV'", "_binary('ADD'", "_binary('SUB'",
        ):
            assert fragment in text, fragment
        assert whole["printed"][0].count("|") == len(EDGE_VALUES)

    def test_unary_operators_and_literal_operands(self, monkeypatch):
        expressions = [
            "+v", "~v", "v + 1", "1 + v", "v - 1", "7 - v", "v | 0", "v & 255",
            "v ^ 1", "v << 2", "1 << v", "v >> 1", "v >>> 0", "v >>> 1", "v % 2",
            "v % -2", "5 % v", "-5 % 3", "v / 2", "v / 0", "v / -0", "0 / v",
            "v * 1", "v + 'x'", "v == null", "v === undefined", "v < 1", "1 <= v",
        ]
        body = "".join(show(expression) for expression in expressions)
        source = (
            "var vals = [%s];\nvar out = ''; var r; var n;\n" % ", ".join(EDGE_VALUES)
            + OSR_PRELUDE
            + "for (var i = 0; i < vals.length; i++) { var v = vals[i]; %s"
            " n = v; n++; out += n + ' '; n = v; n--; out += n + '|'; }\nprint(out);" % body
        )
        translations = _spy_translations(monkeypatch)
        whole = _both(source)
        assert whole["stats"]["compiles"] > 0
        text = "\n".join(text for _n, _r, text in translations)
        assert "_unary('TONUM'" in text and "_unary('BITNOT'" in text
        # No run-time question about a literal: not its type, not its sign.
        assert "type(1)" not in text and "type(2)" not in text
        assert "2 > 0" not in text and "type(-2)" not in text

    def test_typed_position(self):
        """The same operators compiled from number feedback: ``*_d``,
        ``toint32`` + ``bitop_i`` and generic ops on typed operands."""
        body = "".join(
            "out += (a %s b) + ' ';" % operator for operator in BINARY_OPERATORS
        ) + (
            "out += (+a) + ' ' + (~a) + ' ' + ((a | 0) + b) + ' ' + ((a + b) / 2)"
            " + ' ' + ((a - 1) % 3) + ' ' + ((a + b) | 0) + ' ' + ((a - b) >>> 1)"
            " + ' ' + ((a * b) | 0) + '|';"
        )
        calls = "".join(
            "f(%s, %s);" % (a, b) for a in EDGE_NUMBERS for b in EDGE_NUMBERS
        )
        source = (
            "var out = '';\nfunction f(a, b) { %s }\n" % body
            # Train on int/double mixes (numbers widen to double), then
            # the numeric cross product, then every other kind.
            + "for (var k = 0; k < 30; k++) f(k, k + 0.5);\nout = '';\n"
            + calls
            + "".join("f(%s, 3); f(3, %s);" % (v, v) for v in EDGE_VALUES)
            + "print(out);"
        )
        whole = _both(source)
        assert whole["stats"]["compiles"] > 0 and whole["native_instructions"] > 1000

    def test_int_typed_position(self):
        body = (
            "out += (a + b) + ' ' + (a - b) + ' ' + (a & b) + ' ' + (a >>> b) + ' ' + (a % b)"
            " + ' ' + (a / b) + ' ' + ((a + b) | 0) + ' ' + ((a - b) | 0) + '|';"
        )
        ints = ["0", "1", "-1", "2147483647", "-2147483648", "31", "32"]
        source = (
            "var out = '';\nfunction f(a, b) { %s }\n" % body
            + "for (var k = 0; k < 30; k++) f(k, 3);\nout = '';\n"
            + "".join("f(%s, %s);" % (a, b) for a in ints for b in ints)
            + "print(out);"
        )
        _both(source)


class TestGlobalsAsSubscripts:
    """``loadglobal``/``storeglobal`` go to the runtime's dict; the helper
    is the miss arm and raises what it always raised."""

    def _run(self, backend, source, natives=()):
        CodeObject._next_id = 1
        engine = Engine(config=FULL_SPEC, executor_backend=backend)
        for name, function in natives:
            engine.interpreter.runtime.globals[name] = function(engine)
        error = None
        try:
            engine.run_source(source)
        except ReproError as exc:
            error = (type(exc).__name__, str(exc))
            engine.finish()
        return {
            "error": error,
            "printed": list(engine.interpreter.runtime.printed),
            "cycles": engine.executor.cycles,
            "instructions": engine.executor.instructions_executed,
            "summary": engine.stats.summary(),
        }

    def test_missing_global_mid_region(self):
        source = (
            "var total = 0;\n" + OSR_PRELUDE
            + "for (var i = 0; i < 5; i++) total += i;\nprint(total);\n"
            "total = total + 1; total = total + nowhere; print('unreachable');"
        )
        reference = self._run("simple", source)
        whole = self._run("whole", source)
        assert whole == reference
        assert whole["error"] == ("JSReferenceError", "nowhere is not defined")
        assert whole["printed"] == ["10"] and whole["instructions"] > 0

    def test_global_retyped_and_deleted_between_iterations(self):
        def zap(engine):
            def delete_g(_this, _args):
                del engine.interpreter.runtime.globals["g"]
                return UNDEFINED

            return NativeFunction("zap", delete_g)

        source = (
            "var g = 1; var out = '';\n" + OSR_PRELUDE
            + "for (var i = 0; i < 12; i++) {"
            " if (i == 3) g = 'three'; if (i == 5) g = 2.5; if (i == 7) g = {v: 1};"
            " if (i == 9) g = 4; if (i == 11) zap();"
            " out += (g + 1) + ' ' + (g | 0) + ','; g = g; }\nprint(out);"
        )
        reference = self._run("simple", source, natives=[("zap", zap)])
        whole = self._run("whole", source, natives=[("zap", zap)])
        assert whole == reference
        assert whole["error"] == ("JSReferenceError", "g is not defined")
        assert whole["instructions"] > 100


class TestElidedChecksKeepTheirObservables:
    def test_failed_barrier_before_an_elided_unbox_bails_as_the_barrier(self, monkeypatch):
        source = (
            "function f(a, i) { return a[i] + 1; }\n"
            "var arr = [1, 2, 3, 4]; var t = 0;\n"
            "for (var k = 0; k < 40; k++) t += f(arr, k % 4);\n"
            "arr[2] = 'x';\nfor (var k = 0; k < 8; k++) t += f(arr, k % 4);\nprint(t);"
        )
        translations = _spy_translations(monkeypatch)
        reference, ref_events = _observables(source, "simple", trace=True)
        whole, whl_events = _observables(source, "whole", trace=True)
        assert whole == reference
        assert _normalized(whl_events) == _normalized(ref_events)
        bails = [e for e in whl_events if e["ch"] == "bailout" and e["event"] == "guard"]
        assert bails and all(e["guard_op"] == "typebarrier" for e in bails)
        # ... and the unbox behind that barrier is a move in every binary of f.
        elided = 0
        for native, _roots, text in translations:
            ops = [instruction.op for instruction in native.instructions]
            pairs = sum(
                1 for first, second in zip(ops, ops[1:])
                if first == "typebarrier" and second == "unbox"
            )
            assert text.count("'type barrier'") == ops.count("typebarrier")
            assert text.count("'type guard'") == ops.count("unbox") - pairs
            elided += pairs
        assert elided >= 2

    def test_chaos_translation_contains_and_fires_every_guard(self, monkeypatch):
        source = (
            "function f(a, i) { var x = a[i]; return (x | 0) + (x % 3) + x / 2; }\n"
            "var arr = [1, 2, 3, 4]; var t = 0;\n"
            "for (var k = 0; k < 80; k++) t += f(arr, k % 4);\nprint(t);"
        )
        expect, _ = _observables(source, "simple", **FAST)
        translations = _spy_translations(monkeypatch)
        CodeObject._next_id = 1
        injector = GuardFaultInjector()
        engine = Engine(
            config=FULL_SPEC,
            executor_backend="whole",
            bailout_limit=CHAOS_BAILOUT_LIMIT,
            fault_injector=injector,
            **FAST
        )
        assert list(engine.run_source(source)) == expect["printed"]
        assert translations
        for native, _roots, text in translations:
            guards = guard_indices(native)
            # Every guard has its hook, and its own check behind it.
            assert text.count("if _fire(") == len(guards)
            checks = sum(
                1 for index in guards
                if native.instructions[index].op in ("unbox", "typebarrier")
                and native.instructions[index].extra != "Value"
            )
            assert text.count("'type guard'") + text.count("'type barrier'") == checks
        fired = set((r["code_id"], r["native_index"]) for r in injector.fired)
        executed_guards = [
            (native.code.code_id, index)
            for native, seen, guards in injector.coverage()
            for index in seen
        ]
        assert fired == set(executed_guards) and fired

    def test_profiled_translation_counts_blocks_as_before(self):
        source = _bench_source("sunspider", "access-nsieve")

        def block_counts(backend):
            CodeObject._next_id = 1
            profiler = CycleProfiler()
            engine = Engine(
                config=FULL_SPEC, executor_backend=backend, cycle_profiler=profiler
            )
            engine.run_source(source)
            assert profiler.attributed_cycles() == engine.stats.total_cycles
            return [
                (record.native.code.name, record.resolved_counts())
                for record in profiler.binaries
            ]

        assert block_counts("whole") == block_counts("simple")


def test_served_script_binaries_ask_nothing_about_literals(monkeypatch):
    """The serving catalog's scripts are the untyped LIR this is for."""
    from repro.jsvm.bytecompiler import compile_source
    from repro.serving.fleet import FleetProfile, build_catalog

    catalog = build_catalog(FleetProfile(programs=6, seed=7, functions_per_program=10))
    literal_type = re.compile(r"type\((-?\d|'|True|False|_k)")
    translations = _spy_translations(monkeypatch)
    for _name, source in sorted(catalog.items()):
        engine = Engine(config=FULL_SPEC, executor_backend="whole")
        code = compile_source(source)
        for _request in range(3):  # a tenant re-running its program
            engine.run_code(code)
    scripts = [
        (native, text) for native, _roots, text in translations if native.code.is_script
    ]
    assert len(set(id(native.code) for native, _text in scripts)) == 6
    for native, text in scripts:
        assert not literal_type.search(text), literal_type.search(text).group(0)
        assert "_set_global" not in text and "_G[" in text
        # A ``test`` emits each of its branches once.
        tests = sum(1 for instruction in native.instructions if instruction.op == "test")
        assert text.count("_to_boolean(") <= tests
