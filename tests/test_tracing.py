"""The JIT event tracer: zero overhead when off, exact streams when on."""

import json

import pytest

from repro import BASELINE, FULL_SPEC, Engine
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.values import UNDEFINED
from repro.telemetry.tracing import (
    CHANNELS,
    COMMON_FIELDS,
    EVENT_SCHEMA,
    Tracer,
    format_timeline,
    to_chrome_trace,
    to_jsonl,
)

SOURCE = """
function bitsinbyte(b) {
    var m = 1, c = 0;
    while (m < 0x100) { if (b & m) c++; m <<= 1; }
    return c;
}
function TimeFunc(func) {
    var sum = 0;
    for (var x = 0; x < 8; x++)
        for (var y = 0; y < 64; y++) sum += func(y);
    return sum;
}
print(TimeFunc(bitsinbyte));
"""


def run_workload(config, tracer=None):
    engine = Engine(config=config, tracer=tracer)
    engine.run_source(SOURCE)
    return engine


def drive_scale(tracer=None, calls_same=9, then=((10, 10), ("oops", 3))):
    """The deopt life cycle: specialize, hit, discard, generic, bailout."""
    engine = Engine(config=FULL_SPEC, hot_call_threshold=5, tracer=tracer)
    interpreter = engine.interpreter
    code = compile_source("function scale(v, k) { return v * k + 1; }")
    interpreter.run_code(code)
    scale = interpreter.runtime.get_global("scale")
    for _ in range(calls_same):
        interpreter.call_function(scale, UNDEFINED, [7, 3])
    for args in then:
        interpreter.call_function(scale, UNDEFINED, list(args))
    return engine


# ---------------------------------------------------------------------------
# Zero overhead / zero drift when disabled.


@pytest.mark.parametrize("config", [BASELINE, FULL_SPEC], ids=["baseline", "full"])
def test_tracing_off_is_bit_identical(config):
    plain = run_workload(config)
    traced = run_workload(config, tracer=Tracer())
    muted = run_workload(config, tracer=Tracer(channels=()))
    assert plain.stats.summary() == traced.stats.summary()
    assert plain.stats.total_cycles == traced.stats.total_cycles
    assert plain.stats.summary() == muted.stats.summary()
    assert plain.stats.total_cycles == muted.stats.total_cycles


def test_untraced_engine_records_nothing():
    engine = run_workload(FULL_SPEC)
    assert engine.tracer is None


def test_muted_tracer_records_nothing():
    tracer = Tracer(channels=())
    run_workload(FULL_SPEC, tracer=tracer)
    assert len(tracer) == 0
    assert tracer.events == []


def test_channel_filter_only_records_selected():
    tracer = Tracer(channels=["compile"])
    run_workload(FULL_SPEC, tracer=tracer)
    assert len(tracer) > 0
    assert {event["ch"] for event in tracer.events} == {"compile"}


# ---------------------------------------------------------------------------
# The exact deopt event sequence (paper Section 4 policy).


def test_deopt_event_sequence():
    tracer = Tracer(channels=["compile", "specialize", "cache", "deopt", "bailout"])
    drive_scale(tracer)
    labels = ["%s.%s" % (e["ch"], e["event"]) for e in tracer.events]
    assert labels == (
        ["compile.start", "compile.finish", "specialize.specialized", "cache.store"]
        + ["cache.hit"] * 4
        + ["cache.miss", "deopt.discard", "compile.start", "compile.finish",
           "specialize.generic", "bailout.guard"]
    )
    specialized = tracer.events[2]
    assert specialized["args"] == [7, 3]
    discard = tracer.events[9]
    assert discard["reason"] == "new-args"
    assert discard["dropped"] == 1
    generic = tracer.events[12]
    assert generic["never_specialize"] is True
    bail = tracer.events[13]
    assert bail["reason"] == "type guard"
    assert bail["resume_mode"] in ("at", "after")
    assert isinstance(bail["resume_point"], int)
    assert isinstance(bail["native_index"], int)
    assert bail["count"] == 1


def test_timestamps_are_monotone_and_seq_dense():
    tracer = Tracer()
    run_workload(FULL_SPEC, tracer=tracer)
    assert len(tracer) > 0
    ts = [event["ts"] for event in tracer.events]
    assert ts == sorted(ts)
    assert [event["seq"] for event in tracer.events] == list(range(len(ts)))


@pytest.mark.parametrize("backend", ["simple", "closure", "whole"])
def test_a_compile_stalls_the_clock_by_its_own_cycles(backend):
    """The program waits while a function compiles: between a compile's
    start and finish the clock moves by exactly that compile's cycles."""
    tracer = Tracer(channels=["compile"])
    engine = Engine(config=FULL_SPEC, executor_backend=backend, tracer=tracer)
    engine.run_source(SOURCE)
    starts = [e for e in tracer.events if e["event"] == "start"]
    finishes = [e for e in tracer.events if e["event"] == "finish"]
    assert len(starts) == len(finishes) == engine.stats.compiles > 0
    for start, finish in zip(starts, finishes):
        assert finish["fn"] == start["fn"]
        assert finish["ts"] - start["ts"] == finish["cycles"] > 0
    assert sum(e["cycles"] for e in finishes) == engine.stats.compile_cycles


def test_trace_is_deterministic_across_runs():
    first = Tracer(channels=["compile", "specialize", "osr", "pass"])
    second = Tracer(channels=["compile", "specialize", "osr", "pass"])
    run_workload(FULL_SPEC, tracer=first)
    run_workload(FULL_SPEC, tracer=second)
    assert first.events == second.events


#: ``f`` specializes on an object, an array, a guest function and a
#: builtin: every kind of heap argument a key or an ``args`` field names.
HEAP_ARGUMENTS = """
function f(o, a, g, b) { return o.x + a[0] + g(1) + b(2.5); }
function g(v) { return v + 1; }
var o = {x: 1};
var a = [2, 3];
for (var i = 0; i < 30; i++) f(o, a, g, Math.floor);
print(f(o, a, g, Math.floor));
"""

#: Run first by the second process, so its code ids and heap addresses
#: would move if either leaked into the trace.
UNRELATED = """
function pair(p) { return [p, {p: p}]; }
for (var i = 0; i < 40; i++) pair({i: i});
"""


def test_trace_bytes_do_not_depend_on_the_process(tmp_path):
    """`repro trace --jsonl` writes the same file in two fresh processes,
    the second of which ran an unrelated program first."""
    import os
    import subprocess
    import sys

    program = tmp_path / "prog.js"
    program.write_text(HEAP_ARGUMENTS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    trace = ["trace", str(program), "--jsonl"]
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    subprocess.run(
        [sys.executable, "-m", "repro"] + trace + [str(first)],
        env=env, check=True, capture_output=True,
    )
    script = (
        "import runpy, sys\n"
        "from repro import Engine, FULL_SPEC\n"
        "Engine(config=FULL_SPEC).run_source(%r)\n"
        "sys.argv = ['repro'] + %r\n"
        "runpy.run_module('repro', run_name='__main__')\n"
        % (UNRELATED, trace + [str(second)])
    )
    subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True
    )
    text = first.read_text()
    assert second.read_text() == text
    specialized = [
        json.loads(line) for line in text.splitlines() if '"specialized", "ts"' in line
    ]
    assert [(event["key"], event["args"]) for event in specialized] == [
        (
            "(('undefined',), (('ref', 1), ('ref', 2), ('ref', 3), ('ref', 4)))",
            ["{x: 1}", "[2, 3]", "<function g>", "<native function Math.floor>"],
        )
    ]


# ---------------------------------------------------------------------------
# Schema enforcement.


def test_emit_rejects_unknown_channel_event_and_fields():
    tracer = Tracer()
    tracer.bind_clock(lambda: 0)
    with pytest.raises(ValueError):
        tracer.emit("nonsense", "start", fn="f")
    with pytest.raises(ValueError):
        tracer.emit("compile", "nonsense", fn="f")
    with pytest.raises(ValueError):
        tracer.emit("compile", "reject", fn="f", code_id=1, bogus=True)


def test_schema_covers_all_channels():
    assert set(CHANNELS) == set(EVENT_SCHEMA)
    assert "ts" in COMMON_FIELDS and "seq" in COMMON_FIELDS
    for channel, events in EVENT_SCHEMA.items():
        assert events, "channel %s has no events" % channel
        if channel == "profile":
            # profile.summary is engine-global — there is no single
            # function it could carry.
            continue
        if channel == "fuzz":
            # fuzz.run/mismatch/shrink are per-iteration harness events
            # (whole programs, not one function); only fuzz.inject is
            # tied to a guest function.
            assert "fn" in events["inject"]
            continue
        for fields in events.values():
            assert "fn" in fields, "%s events must carry fn" % channel


# ---------------------------------------------------------------------------
# Exporters.


def test_jsonl_round_trips():
    tracer = Tracer()
    run_workload(FULL_SPEC, tracer=tracer)
    lines = to_jsonl(tracer.events).splitlines()
    assert len(lines) == len(tracer)
    for line in lines:
        event = json.loads(line)
        for field in COMMON_FIELDS:
            assert field in event


def test_chrome_trace_is_valid_and_monotone():
    tracer = Tracer()
    drive_scale(tracer)
    chrome = to_chrome_trace(tracer.events)
    blob = json.dumps(chrome)  # must be JSON-serialisable as-is
    parsed = json.loads(blob)
    events = parsed["traceEvents"]
    assert events
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 2  # two compiles, both matched into complete spans
    for span in spans:
        assert span["dur"] > 0
    timeline = [e for e in events if e["ph"] in ("X", "i")]
    ts = [e["ts"] for e in timeline]
    assert ts == sorted(ts)
    metadata = [e for e in events if e["ph"] == "M"]
    assert any(m["args"].get("name") == "scale" for m in metadata)


def test_timeline_formatting():
    tracer = Tracer(channels=["compile", "specialize"])
    drive_scale(tracer)
    text = format_timeline(tracer.events)
    assert "== scale" in text
    assert "compile.start" in text
    assert "specialize.generic" in text
    limited = format_timeline(tracer.events, limit=2)
    assert "more" in limited


# ---------------------------------------------------------------------------
# Harness integration.


def test_harness_trace_flag():
    from repro.bench.harness import run_benchmark
    from repro.workloads import sunspider

    benchmark = sunspider.BITOPS_BITS_IN_BYTE
    plain = run_benchmark(benchmark, FULL_SPEC)
    traced = run_benchmark(benchmark, FULL_SPEC, trace=True)
    assert plain.trace_events is None
    assert traced.trace_events
    assert traced.total_cycles == plain.total_cycles
