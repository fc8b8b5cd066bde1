"""Deoptless recovery: the specialization dispatch table (docs/DEOPTLESS.md).

The §4 policy answers a failed precondition with discard-and-recompile;
`Engine(deoptless=True)` instead retains every compiled sibling in a
per-function dispatch table and re-enters whichever one's preconditions
hold.  Four layers of coverage:

* the dispatch flows in isolation — respecialize, generalize after
  repeated misses, OSR-entry dispatch, table-fill promotion, and the
  identity-key gate that keeps one-allocation regimes out of the table;
* the retrain no-op detector (`deopt.retrain_noop`) that keeps a
  shape-guarded binary whose retrain recompile would be bit-identical;
* the differential contract over the churn suite: deoptless prints
  exactly what §4 prints, strictly cheaper, with fewer invalidations,
  bit-identical across all three executor backends and across a
  cold-then-warm code cache;
* the chaos-injector upgrades that exercise the same regime from the
  fault side — the seeded random schedule, and the entry guards of a
  function first entered through OSR.
"""

import pytest

from repro import FULL_SPEC, Engine
from repro.cache import DiskCodeCache
from repro.engine.bailout import SCHEDULE_WINDOW, GuardFaultInjector
from repro.engine.runtime_engine import (
    DEOPTLESS_MISS_THRESHOLD,
    _key_recurrable,
    _spec_key,
)
from repro.jsvm.objects import JSObject
from repro.jsvm.values import UNDEFINED
from repro.lir.executor import Bailout
from repro.telemetry.profiler import CycleProfiler
from repro.telemetry.tracing import Tracer
from repro.workloads.churn import CHURN, POLYMORPHIC_DISPATCH, SPEC_CHURN

from tests.conftest import FAST
from tests.helpers import ROOT


def run(source, trace=False, **kwargs):
    """One deterministic engine run."""
    tracer = Tracer(channels=("deoptless", "deopt")) if trace else None
    engine = Engine(config=FULL_SPEC, tracer=tracer, **dict(FAST, **kwargs))
    printed = engine.run_source(source)
    events = list(tracer.events) if trace else None
    return engine, printed, events


def state_of(engine, name):
    return next(s for s in engine.states.values() if s.code.name == name)


def deoptless_events(events, kind=None, reason=None):
    picked = [e for e in events if e["ch"] == "deoptless"]
    if kind is not None:
        picked = [e for e in picked if e["event"] == "dispatch" and e["kind"] == kind]
    if reason is not None:
        picked = [e for e in picked if e["event"] == "miss" and e["reason"] == reason]
    return picked


#: Five regimes cycling against a four-line table: the fifth regime
#: overflows into the generalized sibling, and every return of regimes
#: 0-3 must dispatch back into its retained specialized line.
CYCLING_REGIMES = """
function g(k) { return (k * 5 + 1) & 255; }
var total = 0;
for (var p = 0; p < 15; p++) {
    for (var c = 0; c < 4; c++) total = (total + g(p % 5)) & 65535;
}
print(total);
"""

#: Every phase brings a never-repeating argument value: no regime
#: recurs, so the table must converge on the generalized catch-all.
DRIFTING_REGIMES = """
function g(k) { return (k * 5 + 1) & 255; }
var total = 0;
for (var p = 0; p < 12; p++) {
    for (var c = 0; c < 4; c++) total = (total + g(p)) & 65535;
}
print(total);
"""

#: Two recurring regimes through a loop-bearing body: phase flips are
#: caught mid-loop, so recovery dispatches through the OSR entry.
OSR_REGIMES = """
function f(k) {
    var acc = 0;
    for (var i = 0; i < 40; i++) {
        if (k == 0) acc = (acc + i) & 255;
        else acc = (acc ^ i) & 255;
    }
    return acc;
}
var total = 0;
for (var p = 0; p < 10; p++) {
    for (var c = 0; c < 5; c++) total = (total + f(p % 2)) & 65535;
}
print(total);
"""

#: Two recurring regimes through a loop-free body: the second earns a
#: table line by recurring, without ever reaching the miss threshold.
TWO_REGIMES_FLAT = """
function f(k) { return (k * 7 + 3) & 255; }
var total = 0;
for (var p = 0; p < 8; p++) {
    for (var c = 0; c < 6; c++) total = (total + f(p % 2)) & 65535;
}
print(total);
"""

#: A fresh receiver allocation per call: every spec key carries a
#: ('ref', object) component that can never match again.
ONE_SHOT_RECEIVERS = """
function h(o) { return o.v + 1; }
var total = 0;
for (var i = 0; i < 30; i++) {
    var box = {v: i};
    total = (total + h(box)) & 65535;
}
print(total);
"""


class TestDispatchTable:
    """The recovery flows of docs/DEOPTLESS.md, one scenario each."""

    def test_respecialize_reenters_the_retained_sibling(self):
        engine, printed, events = run(CYCLING_REGIMES, trace=True, deoptless=True)
        _, baseline, _ = run(CYCLING_REGIMES)
        assert printed == baseline
        # The table filled to capacity, the fifth regime generalized...
        state = state_of(engine, "g")
        assert len(state.spec_cache) == engine.deoptless_table_capacity == 4
        assert state.generalized is not None
        # ...and returning regimes re-entered their specialized lines
        # instead of discarding anything.
        assert deoptless_events(events, kind="respecialize")
        assert engine.stats.deoptless_reentries > 0
        assert engine.stats.invalidations == 0
        assert engine.stats.retrain_noops == 0

    def test_generalize_after_repeated_misses(self):
        engine, printed, events = run(DRIFTING_REGIMES, trace=True, deoptless=True)
        _, baseline, _ = run(DRIFTING_REGIMES)
        assert printed == baseline
        misses = deoptless_events(events, reason="new-args")
        assert len(misses) >= DEOPTLESS_MISS_THRESHOLD
        generalizes = [e for e in events if e["event"] == "generalize"]
        assert len(generalizes) == 1
        assert generalizes[0]["misses"] == DEOPTLESS_MISS_THRESHOLD
        assert engine.stats.deoptless_generalized_compiles == 1
        assert state_of(engine, "g").generalized is not None
        # The generalized sibling keeps catching the drift natively.
        assert deoptless_events(events, kind="call")

    def test_phase_flip_mid_loop_dispatches_through_the_osr_entry(self):
        engine, printed, events = run(OSR_REGIMES, trace=True, deoptless=True)
        _, baseline, _ = run(OSR_REGIMES)
        assert printed == baseline
        assert deoptless_events(events, reason="osr-state-mismatch")
        osr_dispatches = deoptless_events(events, kind="osr")
        assert osr_dispatches
        assert all(e["osr_pc"] is not None for e in osr_dispatches)
        assert engine.stats.invalidations == 0

    def test_table_growth_waits_for_a_recurring_key(self):
        engine, printed, events = run(TWO_REGIMES_FLAT, trace=True, deoptless=True)
        _, baseline, _ = run(TWO_REGIMES_FLAT)
        assert printed == baseline
        # The second regime missed exactly once, then earned its line
        # by recurring — below the generalization threshold, so the
        # catch-all was never compiled.
        assert len(deoptless_events(events, reason="new-args")) == 1
        state = state_of(engine, "f")
        assert len(state.spec_cache) == 2
        assert state.generalized is None
        assert engine.stats.deoptless_generalized_compiles == 0
        assert engine.stats.invalidations == 0

    def test_identity_keys_never_earn_a_table_line(self):
        engine, printed, _ = run(ONE_SHOT_RECEIVERS, trace=True, deoptless=True)
        _, baseline, _ = run(ONE_SHOT_RECEIVERS)
        assert printed == baseline
        # Thirty distinct receivers: without the identity gate each
        # would recur at the _MISS_KEY_BOUND ledger and flood the
        # table; with it, only the initial compile's line exists and
        # the generalized sibling carries the traffic.
        state = state_of(engine, "h")
        assert len(state.spec_cache) == 1
        assert state.generalized is not None
        assert state.native is state.generalized

    def test_key_recurrability_gate(self):
        # Primitive components match by value: recurrable.
        assert _key_recurrable(_spec_key(UNDEFINED, [1]))
        assert _key_recurrable(_spec_key(UNDEFINED, [1.5, "s", True]))
        # Any ('ref', object) component matches that one allocation
        # only: never recurrable.
        assert not _key_recurrable(_spec_key(UNDEFINED, [1, JSObject(ROOT)]))
        assert not _key_recurrable(_spec_key(JSObject(ROOT), []))

    def test_stats_ledger_carries_the_deoptless_counters(self):
        engine, _, _ = run(CYCLING_REGIMES, deoptless=True)
        snapshot = engine.stats.as_dict()
        for key in (
            "deoptless_reentries",
            "deoptless_misses",
            "deoptless_generalized_compiles",
            "retrain_noops",
        ):
            assert key in snapshot
        assert snapshot["deoptless_reentries"] == engine.stats.deoptless_reentries


#: A mono-shape accessor: compiles with a shape guard whose baked id
#: set equals the site's inline cache, the precondition for the
#: retrain-noop scenarios below.
MONO_ACCESSOR = """
function get(o) { return o.a + o.b; }
var p = {a: 1, b: 2};
var total = 0;
for (var i = 0; i < 20; i++) total = total + get(p);
print(total);
"""


def shape_guarded_state(**kwargs):
    engine, _, _ = run(MONO_ACCESSOR, trace=True, **kwargs)
    state = state_of(engine, "get")
    assert state.native is not None
    feedback = state.code.feedback
    pc, entries = next(iter(feedback.shape_ics.items()))
    return engine, state, pc, entries[0]


def shape_bail(pc, shape_id):
    return Bailout(None, [], [], [], pc, "at", "shape-miss", "guardshape", actual=shape_id)


class TestRetrainNoop:
    """deopt.retrain_noop: skip the discard a recompile would undo.

    A genuine organic trigger needs a binary whose guard set lags the
    live IC while the fingerprint still matches — the guard bakes the
    full IC, so these tests drive the engine's bailout accounting
    directly with a hand-built guardshape Bailout.
    """

    def test_predicate_accepts_only_cached_shapes_at_a_live_fingerprint(self):
        engine, state, pc, shape_id = shape_guarded_state()
        assert engine._retrain_noop(state, shape_bail(pc, shape_id))
        # A shape the IC has not seen: recording it would change the
        # IC, so the retrain is real.
        assert not engine._retrain_noop(state, shape_bail(pc, shape_id + 999))
        # An unknown failing shape is conservatively a real retrain.
        assert not engine._retrain_noop(state, shape_bail(pc, None))
        # A stale fingerprint means the IC moved since this binary
        # compiled: the recompile would differ, so no skip.
        state.native.meta["ic_fingerprint"] = "stale"
        assert not engine._retrain_noop(state, shape_bail(pc, shape_id))

    def test_noop_branch_keeps_the_binary_and_counts(self):
        engine, state, pc, shape_id = shape_guarded_state()
        invalidations = engine.stats.invalidations
        engine._note_bailout(state, shape_bail(pc, shape_id))
        assert engine.stats.retrain_noops == 1
        assert state.native is not None
        assert engine.stats.invalidations == invalidations
        noop_events = [
            e for e in engine.tracer.events if e["event"] == "retrain_noop"
        ]
        assert len(noop_events) == 1
        assert noop_events[0]["resume_pc"] == pc
        assert noop_events[0]["shape"] == shape_id

    def test_novel_shape_still_retrains(self):
        engine, state, pc, shape_id = shape_guarded_state()
        invalidations = engine.stats.invalidations
        engine._note_bailout(state, shape_bail(pc, shape_id + 999))
        assert state.native is None
        assert engine.stats.invalidations == invalidations + 1
        assert engine.stats.retrain_noops == 0

    def test_deoptless_mode_routes_shape_misses_to_the_table(self):
        engine, state, pc, shape_id = shape_guarded_state(deoptless=True)
        misses = engine.stats.deoptless_misses
        engine._note_bailout(state, shape_bail(pc, shape_id + 999))
        # Deoptless never discards on a shape miss: the binary stays
        # in the table and the miss ledger advances instead.
        assert state.native is not None
        assert engine.stats.deoptless_misses == misses + 1
        assert engine.stats.invalidations == 0


def run_bench(bench, backend="simple", **kwargs):
    engine = Engine(config=FULL_SPEC, executor_backend=backend, **kwargs)
    printed = engine.run_source(bench.source)
    return engine, printed


class TestChurnDifferential:
    """The acceptance contract over the churn suite, per benchmark."""

    @pytest.mark.parametrize("bench", CHURN, ids=lambda b: b.name)
    def test_deoptless_wins_without_changing_output(self, bench):
        off, printed_off = run_bench(bench)
        on, printed_on = run_bench(bench, deoptless=True)
        assert printed_on == printed_off
        # The suite is churn by construction: §4 pays invalidations on
        # every phase flip, the dispatch table pays none and is
        # strictly cheaper end to end.
        assert off.stats.invalidations > 0
        assert on.stats.invalidations < off.stats.invalidations
        assert on.stats.total_cycles < off.stats.total_cycles

    @pytest.mark.parametrize("bench", CHURN, ids=lambda b: b.name)
    def test_profiler_stays_exact_with_the_table_on(self, bench):
        # Every dispatched re-entry charges deoptless_dispatch cycles
        # through the profiler's entry accounting, so the attribution
        # identity (docs/PROFILING.md) must survive the feature.
        profiler = CycleProfiler()
        engine = Engine(config=FULL_SPEC, deoptless=True, cycle_profiler=profiler)
        engine.run_source(bench.source)
        assert profiler.attributed_cycles() == engine.stats.total_cycles

    def test_backends_bit_identical_with_the_table_on(self):
        reference, printed = run_bench(SPEC_CHURN, deoptless=True)
        for backend in ("closure", "whole"):
            engine, out = run_bench(SPEC_CHURN, backend, deoptless=True)
            assert out == printed
            assert engine.stats.as_dict() == reference.stats.as_dict()

    def test_cache_cold_then_warm_with_the_table_on(self, tmp_path):
        def cached_run():
            cache = DiskCodeCache(root=str(tmp_path))
            engine = Engine(
                config=FULL_SPEC,
                executor_backend="closure",
                code_cache=cache,
                deoptless=True,
            )
            printed = engine.run_source(POLYMORPHIC_DISPATCH.source)
            return engine, printed, cache

        cold, printed_cold, cache_cold = cached_run()
        warm, printed_warm, cache_warm = cached_run()
        assert printed_warm == printed_cold
        assert warm.stats.total_cycles == cold.stats.total_cycles
        assert cache_cold.misses > 0 and cache_cold.hits == 0
        assert cache_warm.hits > 0 and cache_warm.misses == 0


#: Two regimes through a loop-bearing body: enough guard traffic that
#: a delayed schedule has somewhere to land.
CHAOS_KERNEL = """
function f(k) {
    var acc = 0;
    for (var i = 0; i < 40; i++) acc = (acc + i * k) & 65535;
    return acc;
}
var total = 0;
for (var p = 0; p < 8; p++) total = (total + f(p % 2)) & 65535;
print(total);
"""

#: A function whose only invocation tiers up via OSR: its entry-path
#: guards stay cold.
OSR_ONLY = """
function walk() {
    var acc = 0;
    for (var i = 0; i < 200; i++) acc = (acc + i) & 65535;
    return acc;
}
print(walk());
"""

#: The same function called again: the second call enters its binary
#: through the call path, so the entry-path guards execute.
OSR_THEN_CALLED = OSR_ONLY + "print(walk());\n"


def run_chaos(source, injector, **kwargs):
    engine = Engine(
        config=FULL_SPEC,
        fault_injector=injector,
        bailout_limit=10**9,
        **dict(FAST, **kwargs)
    )
    printed = engine.run_source(source)
    return engine, printed


def firing_schedule(injector):
    return [
        (record["fn"], record["code_id"], record["native_index"], record["execution"])
        for record in injector.fired
    ]


class TestChaosUpgrades:
    """Scheduled guard firing, and the entry guards of an OSR-only function."""

    def test_schedule_is_deterministic_and_seed_sensitive(self):
        _, baseline = run_chaos(CHAOS_KERNEL, None)
        first = GuardFaultInjector(schedule_seed=7)
        _, printed_first = run_chaos(CHAOS_KERNEL, first)
        second = GuardFaultInjector(schedule_seed=7)
        _, printed_second = run_chaos(CHAOS_KERNEL, second)
        # Same seed, same schedule, same recovered output — the
        # schedule mixes only (seed, code id, guard index), so a
        # fresh process replays it exactly.
        assert firing_schedule(first) == firing_schedule(second)
        assert printed_first == printed_second == baseline
        assert all(
            1 <= record["execution"] <= SCHEDULE_WINDOW
            for record in first.fired
        )
        other = GuardFaultInjector(schedule_seed=8)
        _, printed_other = run_chaos(CHAOS_KERNEL, other)
        assert firing_schedule(other) != firing_schedule(first)
        assert printed_other == baseline

    def test_a_second_call_reaches_osr_only_entry_guards(self):
        once = GuardFaultInjector()
        run_chaos(OSR_ONLY, once)
        twice = GuardFaultInjector()
        _, printed = run_chaos(OSR_THEN_CALLED, twice)
        _, baseline = run_chaos(OSR_THEN_CALLED, None)
        assert printed == baseline
        # The second call enters the OSR-compiled function through the
        # call path, and its cold entry guards execute (and get hijacked).
        assert len(twice.fired) > len(once.fired)
