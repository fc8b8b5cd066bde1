"""The warm-call fast path decides exactly what the full policy did.

``Engine.try_native_call`` now takes a steady-state call from state to
key match to the executor, and leaves everything else to
``_call_policy``.  Every observable is held against
``tests/reference_policy.py`` — the call policy, ``_run_call`` and
``record_args`` as they were when each call walked the whole path — on
the suites, the serving catalog, the corpus and a handful of named
shapes the shortcuts could get wrong; a ``sys.setprofile`` count pins the
number of Python frames between a call site and the callee's body.
"""

import glob
import os
import sys

import pytest

from repro.engine.config import FULL_SPEC
from repro.engine.runtime_engine import Engine
from repro.errors import JSRangeError
from repro.jsvm.interpreter import MAX_CALL_DEPTH, Interpreter
from repro.jsvm.values import UNDEFINED
from repro.serving import isolate as serving_isolate
from repro.serving.fleet import FleetProfile, build_catalog, generate_schedule
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads import ALL_SUITES
from tests.helpers import all_function_codes
from tests.reference_policy import ReferenceEngine

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.js")))

#: Engine options the identity has to hold under, besides the default.
VARIANTS = {
    "default": {},
    "deoptless": {"deoptless": True},
    "capacity2": {"spec_cache_capacity": 2},
    "deoptless-capacity2": {"deoptless": True, "spec_cache_capacity": 2},
}


def _plain_key(key):
    """A spec key with heap identities blanked (they differ per run)."""
    if key is None:
        return None
    this_key, args_key = key
    blank = lambda part: ("ref",) if part[0] == "ref" else part
    return (blank(this_key), tuple(blank(part) for part in args_key))


def _feedback_table(code):
    feedback = code.feedback
    if feedback is None:
        return None
    return {
        "arg_tags": [sorted(tags) for tags in feedback.arg_tags],
        "this_tags": sorted(feedback.this_tags),
        "site_tags": dict((pc, sorted(tags)) for pc, tags in feedback.site_tags.items()),
        "recv_tags": dict((pc, sorted(tags)) for pc, tags in feedback.recv_tags.items()),
        "shape_ics": dict(
            (pc, ics if isinstance(ics, str) else list(ics))
            for pc, ics in feedback.shape_ics.items()
        ),
    }


def observables(engine, toplevels):
    """Everything a run leaves behind that a user or a test can read."""
    states = {}
    for code_id, state in engine.states.items():
        states[code_id] = {
            "name": state.code.name,
            "calls": state.call_count,
            "backedges": state.backedge_count,
            "native": None if state.native is None else len(state.native.instructions),
            "specialized": state.native is not None and state.native.specialized,
            "spec_key": _plain_key(state.spec_key),
            "spec_cache": sorted(repr(_plain_key(key)) for key in state.spec_cache),
            "never_specialize": state.never_specialize,
            "force_generic": state.force_generic,
            "not_compilable": state.not_compilable,
            "bailouts": state.bailout_count,
            "deoptless_misses": state.deoptless_misses,
        }
    codes = []
    for toplevel in toplevels:
        codes.extend([toplevel] + all_function_codes(toplevel))
    return {
        "printed": list(engine.interpreter.runtime.printed),
        "summary": engine.stats.summary(),
        "cycles": engine.executor.cycles,
        "instructions": engine.executor.instructions_executed,
        "ops": engine.interpreter.ops_executed,
        "states": states,
        "feedback": [(code.name, _feedback_table(code)) for code in codes],
        "metrics": None if engine.metrics is None else engine.metrics.as_dict(),
    }


def run_under(engine_class, source, error=None, **kwargs):
    """Run ``source`` on a fresh ``engine_class``; returns its observables."""
    engine = engine_class(config=FULL_SPEC, metrics=MetricsRegistry(), **kwargs)
    code = engine.load_source(source)
    if error is None:
        engine.run_code(code)
    else:
        with pytest.raises(error):
            engine.run_code(code)
        engine.finish()
    return engine, observables(engine, [code])


def assert_same(source, error=None, **kwargs):
    engine, fast = run_under(Engine, source, error=error, **kwargs)
    _reference, slow = run_under(ReferenceEngine, source, error=error, **kwargs)
    for field in slow:
        assert fast[field] == slow[field], field
    return engine, fast


# -- the programs --------------------------------------------------------------


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_suite_program_agrees_with_the_reference_policy(variant):
    count = 0
    for suite, benchmarks in sorted(ALL_SUITES.items()):
        for benchmark in benchmarks:
            assert_same(benchmark.source, **VARIANTS[variant])
            count += 1
    assert count == 38
    assert len(ALL_SUITES["churn"]) == 3


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_corpus_agrees_with_the_reference_policy(path, variant):
    with open(path) as handle:
        assert_same(handle.read(), **VARIANTS[variant])


def _serve(monkeypatch, engine_class, engine_kwargs):
    """Replay a 200-request schedule over the catalog; responses + per-tenant state."""
    monkeypatch.setattr(serving_isolate, "Engine", engine_class)
    profile = FleetProfile(tenants=4, programs=6, requests=200, seed=5)
    host = serving_isolate.TenantHost(
        catalog=build_catalog(profile), engine_kwargs=engine_kwargs
    )
    # Serve mode, as the socket front end sends them: no virtual arrival
    # time, so the admission lane queues nothing and rejects nothing.
    responses = [
        host.execute_request({"tenant": record["tenant"], "program": record["program"]})
        for record in generate_schedule(profile)
    ]
    tenants = {}
    for tenant, isolate in sorted(host.isolates.items()):
        isolate.engine.finish()
        toplevels = [code for _source, code in isolate.programs.values()]
        tenants[tenant] = observables(isolate.engine, toplevels)
    return responses, tenants, host.metrics_payloads()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_served_catalog_agrees_with_the_reference_policy(monkeypatch, variant):
    fast = _serve(monkeypatch, Engine, VARIANTS[variant])
    slow = _serve(monkeypatch, ReferenceEngine, VARIANTS[variant])
    assert fast[0] == slow[0]
    assert all(response["status"] == "ok" for response in fast[0])
    assert fast[1] == slow[1]
    assert fast[2] == slow[2]
    served_natively = sum(
        state["calls"] for tenant in fast[1].values() for state in tenant["states"].values()
    )
    assert served_natively > 10000


# -- named shapes ---------------------------------------------------------------


def tags_of(engine, name):
    for state in engine.states.values():
        if state.code.name == name:
            return state.code.feedback
    raise AssertionError("no state for %s" % name)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_osr_key_on_a_reassigned_parameter_still_records_the_call(variant):
    """The key of an OSR compile comes from ``frame.args`` — here ``x`` after
    ``x = x + 0.5`` — which no call ever recorded.  Calling ``f`` with that
    very value hits the primary key; skipping ``record_args`` there would
    lose the ``double`` tag."""
    source = """
    function f(x) {
      x = x + 0.5;
      var total = 0;
      for (var i = 0; i < 150; i++) total += x;
      return total;
    }
    print(f(1));
    print(f(1.5));
    print(f(1.5));
    """
    engine, fast = assert_same(source, **VARIANTS[variant])
    assert fast["printed"] == ["225", "300", "300"]
    assert tags_of(engine, "f").arg_tags == [{"int", "double"}]


def test_a_primary_key_hit_skips_only_what_was_recorded():
    source = """
    function add(a, b) { return a + b; }
    for (var i = 0; i < 40; i++) add(3, 4);
    """
    engine, _fast = assert_same(source)
    state = [s for s in engine.states.values() if s.code.name == "add"][0]
    assert state.native.specialized
    assert state.key_recorded is state.code.feedback
    # A fresh feedback object knows nothing: the next hit records again.
    fresh = type(state.code.feedback)(2)
    state.code.feedback = fresh
    function = engine.interpreter.runtime.globals["add"]
    assert engine.try_native_call(function, UNDEFINED, [3, 4]) == (True, 7)
    assert fresh.arg_tags == [{"int"}, {"int"}]
    assert state.key_recorded is fresh


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_callee_redefined_between_iterations_of_a_native_loop(variant):
    source = """
    function g(a) { return a + 1; }
    function h(a) { return a * 2; }
    var f = g;
    var total = 0;
    for (var i = 0; i < 400; i++) {
      total += f(3);
      if (i == 250) f = h;
    }
    print(total);
    """
    _engine, fast = assert_same(source, **VARIANTS[variant])
    assert fast["printed"] == [str(251 * 4 + 149 * 6)]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_callee_that_bails_on_entry(variant):
    source = """
    function pick(o) { return o.v + 1; }
    var a = {v: 1};
    var b = {w: 0, v: 2};
    var total = 0;
    for (var i = 0; i < 60; i++) total += pick(a);
    for (var j = 0; j < 60; j++) total += pick(j % 2 ? a : b);
    for (var k = 0; k < 60; k++) total += pick(k % 3 ? 'str' : b);
    print(total);
    """
    engine, fast = assert_same(source, **VARIANTS[variant])
    assert fast["summary"]["bailouts"] > 0


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_recursion_to_the_depth_limit(variant):
    source = """
    function down(n) { return n == 0 ? 0 : 1 + down(n - 1); }
    for (var i = 0; i < 30; i++) down(5);
    print(down(%d));
    print(down(100000));
    """ % (MAX_CALL_DEPTH - 20)
    engine, fast = assert_same(source, error=JSRangeError, **VARIANTS[variant])
    assert fast["printed"] == [str(MAX_CALL_DEPTH - 20)]
    assert engine.interpreter.call_depth == 0


@pytest.mark.parametrize("engine_class", [Engine, ReferenceEngine])
def test_out_of_int32_python_int_argument(engine_class):
    """A host embedder can pass a raw Python int outside int32; its tag is
    ``double``, whatever shape of call was seen before it."""
    engine = engine_class(config=FULL_SPEC)
    engine.run_source(
        "function id(a) { return a; } id(1); id(2);"
        "for (var i = 0; i < 30; i++) id(i);"
    )
    function = engine.interpreter.runtime.globals["id"]
    feedback = function.code.feedback
    assert feedback.arg_tags == [{"int"}]
    assert not engine.states[function.code.code_id].native.specialized
    assert engine.interpreter.call_function(function, UNDEFINED, [7]) == 7
    assert feedback.arg_tags == [{"int"}]
    assert engine.interpreter.call_function(function, UNDEFINED, [1 << 40]) == 1 << 40
    assert feedback.arg_tags == [{"int", "double"}]


def test_wide_int_first_then_narrow_int_of_the_same_shape():
    from repro.jsvm.feedback import TypeFeedback

    feedback = TypeFeedback(1)
    feedback.record_args([1 << 40], UNDEFINED)
    assert feedback.arg_tags == [{"double"}]
    feedback.record_args([5], UNDEFINED)
    assert feedback.arg_tags == [{"double", "int"}]
    feedback.record_args([1 << 41], UNDEFINED)
    feedback.record_args([6], UNDEFINED)
    assert feedback.arg_tags == [{"double", "int"}]
    assert feedback.this_tags == {"undefined"}


# -- the frame budget ----------------------------------------------------------------


def frames_to_callee(engine, function, args):
    """Python ``call`` events from ``call_function`` to the callee's ``_w``,
    both counted, for one call from a generated call site's position."""
    call_function = Interpreter.call_function.__code__
    seen = []
    state = {"open": False, "depth": 0}

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code is call_function:
            state["open"] = True
            state["depth"] = 1
        elif state["open"]:
            state["depth"] += 1
            if code.co_name == "_w":
                seen.append(state["depth"])
                state["open"] = False

    call = engine.interpreter.call_function
    sys.setprofile(profile)
    try:
        result = call(function, UNDEFINED, args)
    finally:
        sys.setprofile(None)
    return result, seen


def warm_engine(generic, **kwargs):
    engine = Engine(config=FULL_SPEC, **kwargs)
    source = "function add(a, b) { return a + b; } for (var i = 0; i < 30; i++) add(3, 4);"
    if generic:
        source += " add(5, 6); for (var j = 0; j < 30; j++) add(3, 4);"
    engine.run_source(source)
    function = engine.interpreter.runtime.globals["add"]
    state = engine.states[function.code.code_id]
    assert state.native is not None and state.native.specialized == (not generic)
    return engine, function


def test_a_warm_specialized_call_is_four_frames_from_its_body():
    engine, function = warm_engine(generic=False)
    # call_function, try_native_call, run, _w.
    assert frames_to_callee(engine, function, [3, 4]) == (7, [4])


def test_a_warm_generic_call_is_at_most_five_frames_from_its_body():
    engine, function = warm_engine(generic=True)
    # ... plus record_args, which finds the call's shape already recorded.
    result, seen = frames_to_callee(engine, function, [3, 4])
    assert result == 7 and len(seen) == 1 and seen[0] <= 5


def test_a_metrics_registry_costs_one_more_frame():
    engine, function = warm_engine(generic=False, metrics=MetricsRegistry())
    assert frames_to_callee(engine, function, [3, 4]) == (7, [5])


def test_last_call_is_recorded_for_chaos_runs_only():
    from repro.engine.bailout import GuardFaultInjector, exercise_entry_guards

    engine, _function = warm_engine(generic=False)
    assert all(state.last_call is None for state in engine.states.values())
    with pytest.raises(ValueError, match="fault_injector"):
        exercise_entry_guards(engine)
    chaotic, _function = warm_engine(
        generic=False, fault_injector=GuardFaultInjector(), bailout_limit=10 ** 6
    )
    assert any(state.last_call is not None for state in chaotic.states.values())
    assert exercise_entry_guards(chaotic) >= 1
