"""The whole-binary backend's contract, enforced end to end.

The ``whole`` backend (docs/CODEGEN.md) compiles each specialized
binary to a single generated Python function.  Its contract is the
same bit-identity rule the closure backend lives under — for any
program and configuration, ``EngineStats``, cycle counts, printed
output and trace streams must equal the reference executor's exactly —
plus exact profiler attribution and source/marshalled-module round
trips through the persistent cache under the byte-exact trust rule.

The three-way sweep below runs **every** benchmark of every suite
through all three backends; this is the acceptance check behind
BENCH_wallclock.json's ``whole_speedup`` rows being comparable at all.
"""

import gc
import marshal

import pytest

from repro.cache import DiskCodeCache
from repro.engine.bailout import GuardFaultInjector
from repro.engine.config import CostModel, FULL_SPEC
from repro.engine.jit import compile_function
from repro.engine.runtime_engine import Engine
from repro.engine.stats import DISK_TRAFFIC_KEYS
from repro.fuzz.oracle import CHAOS_BAILOUT_LIMIT
from repro.jsvm.bytecode import CodeObject
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.values import UNDEFINED
from repro.lir import wholefn
from repro.lir.native import FAULT_INJECTED
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
        translations = _spy_translations(monkeypatch)
        warm, warm_printed = run_cached()
        assert warm.code_cache.hits == cold.code_cache.stores
        assert warm_printed == cold_printed
        # Source regenerated now == source stored, for every binary
        # (the script's included), so nothing was compiled again.
        script = _script_native(warm)
        assert script in [native for native, _roots, _text in translations]
        for native, _roots, text in translations:
            assert native.disk_whole is not None
            assert native.disk_whole[0] == text
        assert host_compiles == []

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
        records = {id(record.native): record for record in profiler.binaries}
        for native, fired, _guards in injector.coverage():
            record = records.get(id(native))
            assert record is not None
            for index in fired:
                entry = record.forensics.get(index)
                assert entry is not None, "no forensics for guard %d" % index
                assert entry["reason"] == FAULT_INJECTED


def _compiled_native(source):
    _top, code = compile_and_profile(source)
    result = compile_function(code, FULL_SPEC, feedback=code.feedback)
    return result.native


class TestModuleRoundTrip:
    """whole_artifact → disk_whole → compile_whole honors the
    byte-exact trust rule in both directions."""

    def test_marshalled_module_trusted_when_byte_exact(self, monkeypatch):
        native = _compiled_native("function f(a) { return a + 1; } f(1); f(2);")
        executor = WholeExecutor(Interpreter(), CostModel())
        artifact = whole_artifact(native, executor)
        assert artifact is not None
        assert isinstance(artifact["source"], str) and artifact["source"]
        assert isinstance(artifact["code"], bytes)

        loads_calls = []
        real_loads = marshal.loads

        class _Marshal(object):
            dumps = staticmethod(marshal.dumps)

            @staticmethod
            def loads(blob):
                loads_calls.append(len(blob))
                return real_loads(blob)

        monkeypatch.setattr(wholefn, "marshal", _Marshal)

        native.whole_cache = None
        native.disk_whole = (artifact["source"], artifact["code"])
        fn, _counts, _sums, _prefix = compile_whole(native, executor)
        assert loads_calls, "byte-exact module was not thawed from marshal"
        assert callable(fn)
        assert executor.run(native, None, UNDEFINED, [41]) == 42

    def test_stale_source_falls_back_to_host_compile(self, monkeypatch):
        native = _compiled_native("function f(a) { return a * 2; } f(3); f(4);")
        executor = WholeExecutor(Interpreter(), CostModel())
        artifact = whole_artifact(native, executor)
        assert artifact is not None

        monkeypatch.setattr(
            wholefn,
            "marshal",
            type("NoMarshal", (), {
                "loads": staticmethod(
                    lambda blob: (_ for _ in ()).throw(AssertionError("trusted stale module"))
                ),
                "dumps": staticmethod(marshal.dumps),
            }),
        )
        native.whole_cache = None
        native.disk_whole = ("// not the generated source", artifact["code"])
        # Empty the memo too, so the only blob in reach is the stale one.
        wholefn._MODULE_CODE_MEMO.clear()
        executor_fresh = WholeExecutor(Interpreter(), CostModel())
        assert executor_fresh.run(native, None, UNDEFINED, [21]) == 42

    def test_artifact_refused_when_instrumented(self):
        native = _compiled_native("function f(a) { return a - 1; } f(1); f(2);")
        chaotic = WholeExecutor(Interpreter(), CostModel())
        chaotic.fault_injector = GuardFaultInjector()
        assert whole_artifact(native, chaotic) is None
        profiled = WholeExecutor(Interpreter(), CostModel())
        profiled.cycle_profiler = CycleProfiler()
        assert whole_artifact(native, profiled) is None
