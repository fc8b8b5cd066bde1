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
import types

import pytest

from repro.engine.config import FULL_SPEC
from repro.engine.runtime_engine import Engine
from repro.errors import JSRangeError
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.interpreter import MAX_CALL_DEPTH, Interpreter
from repro.jsvm.objects import JSArray, JSObject
from repro.jsvm.values import (
    INT32_MAX,
    INT32_MIN,
    NULL,
    UNDEFINED,
    JSFunction,
    NativeFunction,
    _spec_key,
)
from repro.serving import isolate as serving_isolate
from repro.serving.fleet import FleetProfile, build_catalog, generate_schedule
from repro.telemetry.metrics import MetricsRegistry, metrics_payload
from repro.telemetry.tracing import Tracer
from repro.workloads import ALL_SUITES
from tests.helpers import ROOT, all_function_codes
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
        "metrics": metrics_payload(engine),
    }


def run_under(engine_class, source, error=None, **kwargs):
    """Run ``source`` on a fresh ``engine_class``; returns its observables."""
    engine = engine_class(config=FULL_SPEC, **kwargs)
    code = engine.load_source(source)
    if error is None:
        engine.run_code(code)
    else:
        with pytest.raises(error):
            engine.run_code(code)
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
    # Requests as the socket front end sends them: tenant and program only.
    responses = [
        host.execute_request({"tenant": record["tenant"], "program": record["program"]})
        for record in generate_schedule(profile)
    ]
    tenants = {}
    for tenant, isolate in sorted(host.isolates.items()):
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
    feedback.record_args([1 << 40])
    assert feedback.arg_tags == [{"double"}]
    feedback.record_args([5])
    assert feedback.arg_tags == [{"double", "int"}]
    feedback.record_args([1 << 41])
    feedback.record_args([6])
    assert feedback.arg_tags == [{"double", "int"}]


# -- the one matcher ---------------------------------------------------------------


def key_forms():
    """One value of every form a spec key component takes, with the pairs
    that make the forms differ: an int in and out of int32 (two equal wide
    ints that are distinct objects), one NaN object reused and a second
    NaN, −0.0 beside 0.0, a bool beside the int it equals, strings,
    undefined and null, and two of each heap class."""
    code = compile_source("function f() { return 0; }").constants[0]
    wide = INT32_MAX + 1
    nan = float("nan")
    return [
        0, 1, -1, INT32_MAX, INT32_MIN, wide, int(str(wide)), INT32_MIN - 1,
        1.0, 0.0, -0.0, 1.5, nan, nan, float("nan"), float("inf"),
        True, False, "", "a", "1",
        UNDEFINED, NULL,
        JSObject(ROOT), JSObject(ROOT),
        JSArray(ROOT, [1]), JSArray(ROOT, [1]),
        JSFunction(code), JSFunction(code),
        NativeFunction("n", lambda this, args: 0), NativeFunction("n", lambda this, args: 0),
    ]


def test_the_warm_key_test_accepts_exactly_the_equal_keys(monkeypatch):
    """``try_native_call``'s inline test is the only spec-key matcher.  Over
    every component form, in the ``this`` slot and in each argument slot,
    it passes a call exactly when the call's own key equals the stored one
    (read from the ``hit`` it hands ``_call_policy``: a tracer sends every
    call there)."""
    verdicts = []
    monkeypatch.setattr(
        Engine, "_call_policy", lambda self, state, function, this, args, hit: verdicts.append(hit)
    )
    engine = Engine(config=FULL_SPEC, tracer=Tracer())
    function = JSFunction(compile_source("function g(a, b) { return a; }").constants[0])
    state = engine._state(function.code)
    specialized = types.SimpleNamespace(specialized=True)

    def accepts(key_this, key_args, this_value, args):
        state.install(specialized, _spec_key(key_this, key_args))
        assert engine.try_native_call(function, this_value, args) == (False, None)
        return verdicts.pop()

    forms = key_forms()
    outcomes = set()
    for stored in forms:
        for value in forms:
            for key_this, key_args, this_value, args in (
                (stored, [1, 1], value, [1, 1]),
                (UNDEFINED, [stored, 1], UNDEFINED, [value, 1]),
                (UNDEFINED, [1, stored], UNDEFINED, [1, value]),
            ):
                equal = _spec_key(this_value, args) == _spec_key(key_this, key_args)
                assert accepts(key_this, key_args, this_value, args) == equal, (stored, value)
                outcomes.add(equal)
        for args in ([], [stored], [stored, stored, stored]):
            assert not accepts(UNDEFINED, [stored, stored], UNDEFINED, args)
    assert outcomes == {True, False}
    # The named cases, as tuple equality decides them.
    nan = float("nan")
    assert accepts(UNDEFINED, [nan], UNDEFINED, [nan])
    assert not accepts(UNDEFINED, [nan], UNDEFINED, [float("nan")])
    assert accepts(UNDEFINED, [-0.0], UNDEFINED, [0.0])
    assert not accepts(UNDEFINED, [1], UNDEFINED, [True])
    wide = INT32_MAX + 1
    assert accepts(UNDEFINED, [wide], UNDEFINED, [int(str(wide))])
    heap = [value for value in forms if _spec_key(value, [])[0][0] == "ref"]
    assert len(heap) == 8
    for first, second in zip(heap[::2], heap[1::2]):
        assert accepts(first, [], first, [])
        assert not accepts(first, [], second, [])
    assert state.key_match is not None


def test_a_call_specialized_on_an_object_takes_the_warm_path(monkeypatch):
    """Once ``get`` is specialized on ``box``, no call of it reaches
    ``_call_policy`` again; a traced run, which sends every call there,
    counts the same."""
    source = """
    function get(o) { return o.v + 1; }
    var box = {v: 41};
    var total = 0;
    for (var i = 0; i < 60; i++) total += get(box);
    print(total);
    """
    policy = Engine._call_policy
    reached = []

    def counting(self, state, *rest):
        if state.native is not None and state.native.specialized:
            reached.append(state.code.name)
        return policy(self, state, *rest)

    monkeypatch.setattr(Engine, "_call_policy", counting)
    plain = Engine(config=FULL_SPEC)
    plain.run_source(source)
    function = plain.interpreter.runtime.globals["get"]
    state = plain.states[function.code.code_id]
    assert state.native.specialized
    assert state.spec_key == (("undefined",), (("ref", plain.interpreter.runtime.globals["box"]),))
    assert reached == []
    traced = Engine(config=FULL_SPEC, tracer=Tracer())
    traced.run_source(source)
    assert len(reached) == 50
    assert plain.interpreter.runtime.printed == traced.interpreter.runtime.printed == ["2520"]
    assert plain.stats.as_dict() == traced.stats.as_dict()


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


def test_a_metrics_registry_costs_no_frame():
    engine, function = warm_engine(generic=False, metrics=MetricsRegistry())
    assert frames_to_callee(engine, function, [3, 4]) == (7, [4])
