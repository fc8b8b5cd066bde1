"""Differential tests: the closure-compiled backend vs the reference.

The closure backend's contract (docs/PERF.md) is *bit-identical
observables*: for any program and configuration, ``EngineStats``,
cycle counts, printed output and the JIT trace stream must equal the
reference executor's exactly.  These tests enforce the contract on
real suite benchmarks across configurations, on hand-compiled natives
(guards, bailout payloads, cycle accounting under partial execution),
and on the backend selection machinery itself.
"""

import pytest

from repro.engine.config import BASELINE, FULL_SPEC
from repro.engine.jit import compile_function
from repro.engine.runtime_engine import (
    DEFAULT_EXECUTOR_BACKEND,
    EXECUTOR_BACKENDS,
    EXECUTOR_ENV_VAR,
    Engine,
    resolve_executor_backend,
)
from repro.errors import CompilerError
from repro.jsvm.bytecode import CodeObject
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.values import UNDEFINED
from repro.lir.closures import ClosureExecutor
from repro.lir.wholefn import WholeExecutor
from repro.lir.executor import Bailout, NativeExecutor
from repro.lir.lir_nodes import LInstruction
from repro.lir.native import NativeCode
from repro.telemetry.tracing import Tracer
from repro.workloads import ALL_SUITES

from tests.conftest import FAST
from tests.helpers import compile_and_profile

#: Two cheap benchmarks per suite keep this differential sweep inside
#: the tier-1 time budget while still covering all three suites.
BENCH_SUBSET = [
    ("sunspider", "access-nsieve"),
    ("sunspider", "string-unpack-code"),
    ("v8", "richards"),
    ("v8", "regexp"),
    ("kraken", "stanford-crypto-ccm"),
    ("kraken", "audio-beat-detection"),
]

#: The configurations the contract is checked under: the IonMonkey
#: baseline (no parameter specialization), the full paper config, and
#: the full config with a deeper specialization cache.
CONFIG_MATRIX = [
    ("baseline", BASELINE, {}),
    ("all", FULL_SPEC, {}),
    ("all+cache4", FULL_SPEC, {"spec_cache_capacity": 4}),
]


def _bench_source(suite_name, bench_name):
    for benchmark in ALL_SUITES[suite_name]:
        if benchmark.name == bench_name:
            return benchmark.source
    raise AssertionError("no benchmark %s/%s" % (suite_name, bench_name))


def _run_full(source, backend, config, trace=False, **engine_kwargs):
    """One engine run; returns (observables dict, trace events or None)."""
    tracer = Tracer() if trace else None
    engine = Engine(
        config=config, executor_backend=backend, tracer=tracer, **engine_kwargs
    )
    printed = engine.run_source(source)
    observables = {
        "printed": list(printed),
        "summary": engine.stats.summary(),
        "cycles": engine.executor.cycles,
        "native_instructions": engine.executor.instructions_executed,
        "interp_ops": engine.interpreter.ops_executed,
        "code_sizes": dict(engine.stats.code_sizes),
        "compiles_per_function": dict(engine.stats.compiles_per_function),
        "specialized": set(engine.stats.specialized_functions),
        "deoptimized": set(engine.stats.deoptimized_functions),
    }
    return observables, (list(tracer.events) if tracer is not None else None)


class TestSuiteDifferential:
    """Benchmarks x configurations: all observables must match."""

    @pytest.mark.parametrize("suite_name,bench_name", BENCH_SUBSET)
    @pytest.mark.parametrize(
        "label,config,kwargs", CONFIG_MATRIX, ids=[row[0] for row in CONFIG_MATRIX]
    )
    def test_backends_bit_identical(self, suite_name, bench_name, label, config, kwargs):
        source = _bench_source(suite_name, bench_name)
        reference, _ = _run_full(source, "simple", config, **kwargs)
        closure, _ = _run_full(source, "closure", config, **kwargs)
        whole, _ = _run_full(source, "whole", config, **kwargs)
        assert closure == reference
        assert whole == reference

    @pytest.mark.parametrize(
        "suite_name,bench_name",
        [("sunspider", "access-nsieve"), ("v8", "richards"), ("kraken", "stanford-crypto-ccm")],
    )
    def test_trace_streams_identical(self, suite_name, bench_name):
        source = _bench_source(suite_name, bench_name)
        reference, ref_events = _run_full(source, "simple", FULL_SPEC, trace=True)
        closure, clo_events = _run_full(source, "closure", FULL_SPEC, trace=True)
        whole, whl_events = _run_full(source, "whole", FULL_SPEC, trace=True)
        assert closure == reference
        assert whole == reference
        assert clo_events == ref_events
        assert whl_events == ref_events

    def test_osr_differential(self):
        # A loop hot enough for on-stack replacement under the fast
        # test thresholds; OSR entry goes through the closure driver's
        # osr_index path.
        source = (
            "function f(n) { var s = 0; for (var i = 0; i < n; i++) { s = s + i; } return s; }"
            " print(f(500)); print(f(501));"
        )
        reference, _ = _run_full(source, "simple", FULL_SPEC, **FAST)
        closure, _ = _run_full(source, "closure", FULL_SPEC, **FAST)
        whole, _ = _run_full(source, "whole", FULL_SPEC, **FAST)
        assert closure == reference
        assert whole == reference
        assert reference["printed"] == ["124750", "125250"]


def _compiled(source, name=None, config=BASELINE, param_values=None):
    _top, code = compile_and_profile(source, name)
    result = compile_function(
        code, config, feedback=code.feedback,
        param_values=param_values if config.param_spec else None,
    )
    return code, result.native


def _executor_pair():
    return (
        NativeExecutor(Interpreter()),
        ClosureExecutor(Interpreter()),
    )


class TestClosureExecutorDirect:
    """Hand-compiled natives run directly on both executors."""

    def test_result_and_counters_match(self):
        _code, native = _compiled("function f(a, b) { return a * b + 1; } f(6, 7);")
        reference, closure = _executor_pair()
        assert reference.run(native, None, UNDEFINED, [6, 7]) == 43
        assert closure.run(native, None, UNDEFINED, [6, 7]) == 43
        assert closure.cycles == reference.cycles
        assert closure.instructions_executed == reference.instructions_executed

    def test_loop_counters_match(self):
        source = (
            "function f(n) { var s = 0; for (var i = 0; i < n; i++) s += i; return s; }"
            " f(10);"
        )
        _code, native = _compiled(source)
        reference, closure = _executor_pair()
        assert reference.run(native, None, UNDEFINED, [100]) == 4950
        assert closure.run(native, None, UNDEFINED, [100]) == 4950
        assert closure.cycles == reference.cycles
        assert closure.instructions_executed == reference.instructions_executed

    def test_bailout_payload_and_accounting_match(self):
        # b was profiled Int32; passing nothing fails the entry type
        # guard.  The whole Bailout payload — snapshot identity, frame
        # reconstruction, resume pc/mode, faulting instruction index —
        # and the cycles charged up to the fault must match.
        _code, native = _compiled("function f(a, b) { return a + b; } f(1, 2);")
        reference, closure = _executor_pair()
        with pytest.raises(Bailout) as ref_info:
            reference.run(native, None, UNDEFINED, [1])
        with pytest.raises(Bailout) as clo_info:
            closure.run(native, None, UNDEFINED, [1])
        ref_bail, clo_bail = ref_info.value, clo_info.value
        assert clo_bail.native_index == ref_bail.native_index
        assert clo_bail.pc == ref_bail.pc
        assert clo_bail.mode == ref_bail.mode
        assert clo_bail.reason == ref_bail.reason
        assert clo_bail.guard_op == ref_bail.guard_op
        assert clo_bail.frame_args == ref_bail.frame_args
        assert clo_bail.frame_locals == ref_bail.frame_locals
        assert clo_bail.frame_stack == ref_bail.frame_stack
        assert clo_bail.snapshot is ref_bail.snapshot
        assert closure.cycles == reference.cycles
        assert closure.instructions_executed == reference.instructions_executed

    def test_overflow_bailout_mid_function_matches(self):
        # Overflow fires mid-stream (not at an entry guard), exercising
        # the partial-block accounting path.
        source = (
            "function f(a) { return a + a; } f(1); f(2);"
        )
        _code, native = _compiled(source)
        reference, closure = _executor_pair()
        big = 2000000000
        with pytest.raises(Bailout) as ref_info:
            reference.run(native, None, UNDEFINED, [big])
        with pytest.raises(Bailout) as clo_info:
            closure.run(native, None, UNDEFINED, [big])
        assert clo_info.value.native_index == ref_info.value.native_index
        assert clo_info.value.reason == ref_info.value.reason
        assert clo_info.value.actual == ref_info.value.actual
        assert closure.cycles == reference.cycles
        assert closure.instructions_executed == reference.instructions_executed

    def test_compiled_blocks_cached_per_binary(self):
        _code, native = _compiled("function f(a) { return a + 1; } f(1);")
        closure = ClosureExecutor(Interpreter())
        assert native.closure_cache is None
        closure.run(native, None, UNDEFINED, [1])
        cache = native.closure_cache
        assert cache is not None and cache[0] is closure
        closure.run(native, None, UNDEFINED, [2])
        assert native.closure_cache is cache  # reused, not rebuilt
        # A different executor instance owns different bound hooks and
        # must recompile.
        other = ClosureExecutor(Interpreter())
        other.run(native, None, UNDEFINED, [3])
        assert native.closure_cache is not cache
        assert native.closure_cache[0] is other

    def test_unknown_op_raises_compiler_error(self):
        code = CodeObject("broken", [])
        native = NativeCode(
            code,
            [LInstruction("definitely_not_an_op")],
            entry_index=0,
            osr_index=None,
            num_slots=0,
        )
        closure = ClosureExecutor(Interpreter())
        with pytest.raises(CompilerError):
            closure.run(native, None, UNDEFINED, [])

    def test_missing_osr_entry_raises(self):
        _code, native = _compiled("function f(a) { return a + 1; } f(1);")
        assert native.osr_index is None
        closure = ClosureExecutor(Interpreter())
        with pytest.raises(CompilerError):
            closure.run(native, None, UNDEFINED, [1], entry="osr")


class TestBackendSelection:
    """Engine backend registry, constructor arg and env var."""

    def test_default_is_whole_and_overrides_in_order(self, monkeypatch):
        """explicit argument > $REPRO_EXECUTOR > the default, ``whole``."""
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        engine = Engine(config=FULL_SPEC)
        assert engine.executor_backend == DEFAULT_EXECUTOR_BACKEND == "whole"
        assert isinstance(engine.executor, WholeExecutor)
        assert resolve_executor_backend() == "whole"

        monkeypatch.setenv(EXECUTOR_ENV_VAR, "closure")
        assert Engine(config=FULL_SPEC).executor_backend == "closure"
        assert isinstance(Engine(config=FULL_SPEC).executor, ClosureExecutor)
        explicit = Engine(config=FULL_SPEC, executor_backend="simple")
        assert explicit.executor_backend == "simple"

        monkeypatch.setenv(EXECUTOR_ENV_VAR, "turbofan")
        with pytest.raises(ValueError):
            Engine(config=FULL_SPEC)
        assert Engine(config=FULL_SPEC, executor_backend="whole").executor_backend == "whole"

    def test_explicit_simple(self):
        engine = Engine(config=FULL_SPEC, executor_backend="simple")
        assert engine.executor_backend == "simple"
        assert type(engine.executor) is NativeExecutor

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "simple")
        engine = Engine(config=FULL_SPEC)
        assert engine.executor_backend == "simple"

    def test_explicit_arg_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "simple")
        engine = Engine(config=FULL_SPEC, executor_backend="closure")
        assert engine.executor_backend == "closure"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_executor_backend("turbofan")
        with pytest.raises(ValueError):
            Engine(config=FULL_SPEC, executor_backend="turbofan")

    def test_registry_names(self):
        assert set(EXECUTOR_BACKENDS) == {"simple", "closure", "whole"}

    def test_explicit_whole(self):
        engine = Engine(config=FULL_SPEC, executor_backend="whole")
        assert engine.executor_backend == "whole"
        assert isinstance(engine.executor, WholeExecutor)
