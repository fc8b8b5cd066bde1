"""Lifetime is ownership: a finished engine and a finished compile free
themselves by reference count (docs/PERF.md, "Memory and lifetime").

``Engine`` owns ``Interpreter``, executor, states and natives;
``Interpreter`` owns ``Runtime``; ``Runtime`` owns ``ShapeTree``,
globals and method tables; every pointer back up is non-owning.  These
tests hold that with the cycle collector *disabled*: what is dead must
be dead before any ``gc.collect()``, and a collection afterwards must
find nothing engine-made — only what a guest program knotted itself.
"""

import gc
import importlib.util
import os
import weakref

import pytest

from repro import FULL_SPEC, Engine, OwnerDropped
from repro.cache import DiskCodeCache
from repro.engine.jit import compile_function
from repro.errors import NotCompilable
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.feedback import TypeFeedback
from repro.jsvm.interpreter import Interpreter
from repro.mir.graph import MIRGraph
from repro.mir.verifier import verify_dominance, verify_graph
from repro.serving.isolate import TenantHost
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import CycleProfiler
from repro.telemetry.tracing import Tracer
from repro.workloads import ALL_SUITES, generate_website_program

from tests.helpers import all_function_codes

#: Unreachable objects one finished program may leave for a collection
#: (the same budget ``tools/gc_census.py --check`` enforces; the seed
#: left 10,677 per warm page and 18,002 per cold one).
BUDGET = 300

PAGE = generate_website_program("lifetime.example", num_functions=24, seed=7)


def census_tool():
    """``tools/gc_census.py`` as a module (its cycle finder is the test's)."""
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "gc_census.py")
    spec = importlib.util.spec_from_file_location("gc_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def suite_source(suite, name):
    return next(b.source for b in ALL_SUITES[suite] if b.name == name)


@pytest.fixture(autouse=True)
def collector_off():
    """Every test runs with the collector drained first, then disabled."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def leftovers():
    """What only a collection can free, now: ``[object]``."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        del gc.garbage[:]


def engine_made(objects):
    return sorted(
        {
            "%s.%s" % (type(value).__module__, type(value).__qualname__)
            for value in objects
            if type(value).__module__.startswith("repro.")
        }
    )


def run_and_watch(source, **engine_kwargs):
    """Run ``source`` on a fresh engine; weak references to its parts.

    Returns ``{part name: weakref}``; on return this function holds
    nothing of the engine, so every part is owned by the tree alone.
    """
    engine = Engine(config=FULL_SPEC, **engine_kwargs)
    code = engine.load_source(source)
    engine.run_code(code)
    state = next(s for s in engine.states.values() if s.native is not None)
    native = state.native
    parts = {
        "Engine": engine,
        "Interpreter": engine.interpreter,
        "Runtime": engine.interpreter.runtime,
        "ShapeTree": engine.interpreter.runtime.shapes,
        "executor": engine.executor,
        "root CodeObject": code,
        "FunctionState": state,
        "NativeCode": native,
    }
    if native.whole_cache is not None:
        parts["whole_cache function"] = native.whole_cache[3]
    return {name: weakref.ref(part) for name, part in parts.items()}


def assert_freed(watched):
    alive = sorted(name for name, ref in watched.items() if ref() is not None)
    assert not alive, "still alive with the last reference dropped: %s" % ", ".join(alive)
    found = leftovers()
    assert engine_made(found) == []
    assert len(found) <= BUDGET


class TestAFinishedPageFreesItself:
    @pytest.mark.parametrize("backend", ["simple", "whole"])
    @pytest.mark.parametrize(
        "source",
        [
            PAGE,
            suite_source("kraken", "ai-astar"),
            suite_source("churn", "shape-flip"),
        ],
        ids=["page", "kraken/ai-astar", "churn/shape-flip"],
    )
    def test_no_cache(self, backend, source):
        assert_freed(run_and_watch(source, executor_backend=backend))

    @pytest.mark.parametrize("backend", ["simple", "whole"])
    def test_cold_then_warm_disk_cache(self, backend, tmp_path):
        root = str(tmp_path / "cache")
        cold = DiskCodeCache(root)
        assert_freed(run_and_watch(PAGE, executor_backend=backend, code_cache=cold))
        assert cold.stores and not cold.hits
        warm = DiskCodeCache(root)
        assert_freed(run_and_watch(PAGE, executor_backend=backend, code_cache=warm))
        assert warm.hits and warm.program_loads

    @pytest.mark.parametrize(
        "kwargs",
        [{"deoptless": True}, {"spec_cache_capacity": 2}],
        ids=["deoptless", "capacity2"],
    )
    @pytest.mark.parametrize("backend", ["simple", "whole"])
    def test_deoptless_and_spec_cache_churn(self, backend, kwargs):
        source = suite_source("churn", "shape-flip")
        assert_freed(run_and_watch(source, executor_backend=backend, **kwargs))
        assert_freed(run_and_watch(PAGE, executor_backend=backend, **kwargs))

    @pytest.mark.parametrize("backend", ["simple", "whole"])
    def test_observed_engine(self, backend):
        """The observers outlive the engine in their owner's hands; they
        must not own it back."""
        tracer = Tracer()
        profiler = CycleProfiler()
        watched = run_and_watch(
            PAGE, executor_backend=backend, tracer=tracer, cycle_profiler=profiler
        )
        assert tracer.events
        del tracer, profiler
        assert_freed(watched)

    def test_a_tracer_clock_does_not_own_the_ledger(self):
        """The tracer's clock reads ``stats.total_cycles`` through a weak
        reference: the ledger dies with its engine, and the clock then
        stands still at its last answer."""
        tracer = Tracer()
        engine = Engine(config=FULL_SPEC, tracer=tracer)
        engine.run_source(PAGE)
        total = engine.stats.total_cycles
        assert total > 0 and tracer._clock() == total
        ledger = weakref.ref(engine.stats)
        interpreter = weakref.ref(engine.interpreter)
        del engine
        assert ledger() is None and interpreter() is None
        assert tracer._clock() == total
        assert engine_made(leftovers()) == []

    @pytest.mark.parametrize("backend", ["simple", "whole"])
    def test_a_registry_that_outlives_its_engine_holds_only_numbers(self, backend):
        """A registry keeps no clock, callback or other way back to the
        engine, and reads what ``finish()`` wrote once the engine is gone."""

        def numbers_only(value):
            if type(value) is dict:
                return all(type(k) is str and numbers_only(v) for k, v in value.items())
            if type(value) is list:
                return all(numbers_only(item) for item in value)
            return type(value) is int

        metrics = MetricsRegistry()
        engine = Engine(config=FULL_SPEC, executor_backend=backend, metrics=metrics)
        engine.run_source(PAGE)
        stats = engine.stats
        assert stats.compiles > 0
        finished = metrics.as_dict()
        dead = weakref.ref(engine)
        del engine
        assert dead() is None
        assert engine_made(leftovers()) == []
        assert numbers_only(vars(metrics)), sorted(vars(metrics))
        assert metrics.as_dict() == finished
        assert metrics.counters["repro_engine_compiles_total"] == stats.compiles
        assert metrics.counters["repro_engine_calls_interp_total"] == stats.interp_calls
        assert metrics.gauges["repro_engine_total_cycles"] == stats.total_cycles


class TestACompilesTemporariesDieWhenItReturns:
    SOURCE = "function f(a, n) { var s = 0; for (var i = 0; i < n; i++) s += a[i] | 0; return s; }"

    def _watch_graphs(self, monkeypatch):
        """Weak references to the entry block of every graph that gets built."""
        entries = []
        new_block = MIRGraph.new_block

        def watching(graph):
            block = new_block(graph)
            if len(graph.blocks) == 1:
                entries.append(weakref.ref(block))
            return block

        monkeypatch.setattr(MIRGraph, "new_block", watching)
        return entries

    def _function(self, source, name="f"):
        code = next(c for c in all_function_codes(compile_source(source)) if c.name == name)
        code.feedback = TypeFeedback(code.num_params)
        gc.collect()  # the helper's own recursive closure, not the compile's
        return code

    def test_a_finished_compile_keeps_no_graph(self, monkeypatch):
        entries = self._watch_graphs(monkeypatch)
        result = compile_function(self._function(self.SOURCE), FULL_SPEC)
        assert result.graph is None and result.mir_instructions > 0
        assert len(entries) == 1 and entries[0]() is None
        assert leftovers() == []

    def test_inlined_and_rejected_callee_graphs_go_too(self, monkeypatch):
        entries = self._watch_graphs(monkeypatch)
        source = (
            "function small(x) { return x + 1; }"
            "function f(g, x) { return g(x) + g(x); }"
        )
        toplevel = compile_source(source)
        codes = {c.name: c for c in all_function_codes(toplevel)}
        from repro.jsvm.values import JSFunction

        callee = JSFunction(codes["small"], ())
        codes["f"].feedback = TypeFeedback(2)
        gc.collect()
        compile_function(codes["f"], FULL_SPEC, param_values=[callee, 3])
        assert len(entries) > 1
        assert [ref() for ref in entries] == [None] * len(entries)
        assert leftovers() == []

    def test_a_refused_function_leaves_no_graph(self, monkeypatch):
        entries = self._watch_graphs(monkeypatch)
        code = self._function("function f(o) { o.x = 1; delete o.x; return o; }")
        with pytest.raises(NotCompilable):
            compile_function(code, FULL_SPEC)
        assert entries and [ref() for ref in entries] == [None] * len(entries)
        assert leftovers() == []

    def test_dead_code_does_not_refuse_a_function(self):
        """Refusal looks at exactly the bytecode the builder would visit."""
        code = self._function("function f(o) { return o; delete o.x; }")
        assert compile_function(code, FULL_SPEC).native is not None

    def test_keep_graph_returns_a_whole_graph(self):
        result = compile_function(self._function(self.SOURCE), FULL_SPEC, keep_graph=True)
        graph = result.graph
        verify_graph(graph)
        verify_dominance(graph)
        assert graph.num_instructions() == result.mir_instructions
        assert all(block.graph is graph for block in graph.blocks)
        entry = weakref.ref(graph.entry)
        graph.release()
        del graph, result
        assert entry() is None


class TestGuestCyclesAreTheGuestsOwn:
    def test_only_the_guests_knots_wait_for_the_collector(self):
        source = (
            "var a = {}; a.self = a;"
            "function make() { var me = function () { return me; }; return me; }"
            "var f = make(); print(f() === f);"
        )
        engine = Engine(config=FULL_SPEC)
        assert engine.run_source(source) == ["true"]
        dead = weakref.ref(engine)
        del engine
        assert dead() is None
        found = leftovers()
        # The knots keep what they reach (code objects, shapes); the
        # *cycles* are the guest's two and nothing else.
        cycles = sorted(
            sorted(type(found[index]).__name__ for index in members)
            for members in census_tool().components(found)[0]
        )
        assert cycles == [["Cell", "JSFunction", "tuple"], ["JSObject", "list"]]
        assert not {"Engine", "Interpreter", "Runtime", "NativeCode"} & {
            type(value).__name__ for value in found
        }
        assert len(found) < BUDGET


class TestADeadOwnerIsATypedError:
    LOOP = "function f(x) { return x + 1; } var t = 0; for (var i = 0; i < 5; i++) t += f(i); print(t);"

    def test_interpreter_that_outlives_its_engine_refuses_to_run(self):
        interpreter = Engine(config=FULL_SPEC).interpreter
        with pytest.raises(OwnerDropped, match="Engine") as caught:
            interpreter.run_source(self.LOOP)
        assert caught.value.owner == "Engine"
        # ... at the first back edge too, with no call in sight.
        interpreter = Engine(config=FULL_SPEC).interpreter
        with pytest.raises(OwnerDropped, match="Engine"):
            interpreter.run_source("for (var i = 0; i < 3; i++) {}")

    def test_hooked_call_path_refuses_too(self):
        interpreter = Engine(config=FULL_SPEC, tracer=Tracer()).interpreter
        with pytest.raises(OwnerDropped, match="Engine"):
            interpreter.run_source(self.LOOP)

    def test_runtime_that_outlives_its_interpreter_refuses_a_callback(self):
        runtime = Interpreter().runtime
        sort = runtime.array_methods["sort"]
        from repro.jsvm.objects import JSArray
        from repro.jsvm.values import NativeFunction

        array = JSArray(runtime.shapes.root, [2, 1])
        comparator = NativeFunction("cmp", lambda _this, args: args[0] - args[1])
        with pytest.raises(OwnerDropped, match="Interpreter"):
            sort(array, [comparator])

    def test_engineless_interpreter_is_todays_path(self):
        interpreter = Interpreter()
        assert interpreter.run_source(self.LOOP) == ["15"]
        assert interpreter.run_source("var a = [3, 1, 2]; a.sort(function (x, y) { return x - y; }); print(a.join());")[-1] == "1,2,3"


class TestARedeployFreesTheOldProgram:
    V1 = "function hot(x) { return x * 2; } var t = 0; for (var i = 0; i < 40; i++) t += hot(i); print(t);"
    V2 = "function hot(x) { return x * 3; } var t = 0; for (var i = 0; i < 40; i++) t += hot(i); print(t);"

    @pytest.mark.parametrize("cache_mode", ["off", "shared"])
    def test_old_tree_is_dead_right_after_the_redeploy(self, cache_mode, tmp_path):
        host = TenantHost(
            cache_root=None if cache_mode == "off" else str(tmp_path / "cache"),
            cache_mode=cache_mode,
        )
        request = {"tenant": "t", "program": "p", "source": self.V1}
        assert host.execute_request(dict(request))["output"] == ["1560"]
        isolate = host.isolates["t"]
        old_root = isolate.programs["p"][1]
        old_hot = next(c for c in old_root.constants if getattr(c, "name", None) == "hot")
        watched = {
            "root CodeObject": weakref.ref(old_root),
            "NativeCode": weakref.ref(isolate.engine.states[old_hot.code_id].native),
            "TypeFeedback": weakref.ref(old_hot.feedback),
        }
        del old_root, old_hot
        request["source"] = self.V2
        assert host.execute_request(dict(request))["output"] == ["2340"]
        alive = sorted(name for name, ref in watched.items() if ref() is not None)
        assert not alive, "the re-deployed program still pins: %s" % ", ".join(alive)
