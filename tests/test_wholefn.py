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

import marshal

import pytest

from repro.engine.bailout import GuardFaultInjector
from repro.engine.config import CostModel, FULL_SPEC
from repro.engine.jit import compile_function
from repro.engine.runtime_engine import Engine
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

    def test_deeper_than_host_block_limit(self):
        source = _deep_loop_nest(25)
        reference, _ = _observables(source, "simple", **FAST)
        whole, _ = _observables(source, "whole", **FAST)
        assert whole == reference
        assert reference["printed"] == ["1"] * 8
        assert reference["stats"]["compiles"] > 0


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
