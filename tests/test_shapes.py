"""The heap model of docs/SHAPES.md, end to end.

Four layers of enforcement:

* the transition tree in isolation — shared root, insertion-order
  sensitivity, delete transitions, deterministic numbering;
* the IC state machine in isolation — mono → poly → megamorphic with
  the exact hit/miss/transition outcomes the tracer narrates;
* shape-guarded compilation — object workloads compile with live
  ``guardshape`` instructions and print/account bit-identically on the
  interpreter and both executor backends, in this process and (byte
  for byte, trace included) across separate processes;
* the failure paths — chaos-forced shape guards recover exactly, and
  shape-keyed binaries round-trip the persistent code cache.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import FULL_SPEC, Engine
from repro.cache import DiskCodeCache
from repro.cache.disk import _shape_ic_fingerprint
from repro.engine.bailout import GuardFaultInjector
from repro.fuzz.oracle import CHAOS_BAILOUT_LIMIT
from repro.jsvm.feedback import MAX_IC_SHAPES, MEGAMORPHIC, TypeFeedback
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.objects import JSArray, JSObject, ShapeTree
from repro.lir.native import FAULT_INJECTED
from repro.telemetry.profiler import CycleProfiler
from repro.telemetry.tracing import Tracer
from repro.workloads import ALL_SUITES

from tests.conftest import FAST

#: One hot accessor hit by two insertion orders of the same properties
#: (mono → guard failure → retrain → poly) plus a shape-churn callee
#: that adds and deletes past the IC capacity.
POLY_SOURCE = """\
function total(r) { return r.price * r.count; }
function churn(o) { o.tag = 1; delete o.tag; return o.price; }
var a = {price: 3, count: 5};
var b = {count: 5, price: 3};
var s = 0;
for (var i = 0; i < 20; i++) s += total(a);
for (var j = 0; j < 20; j++) s += total(b) + churn(a) + churn(b);
print(s);
"""


@pytest.fixture
def root():
    """The root of a blank tree, as a fresh Runtime would hold."""
    return ShapeTree().root


# ---------------------------------------------------------------------------
# The transition tree


class TestTransitionTree:
    def test_same_insertion_order_shares_a_shape(self, root):
        first, second = JSObject(root), JSObject(root)
        for obj in (first, second):
            obj.set("x", 1)
            obj.set("y", 2)
        assert first.shape is second.shape
        assert first.shape.names == ("x", "y")

    def test_insertion_order_distinguishes_shapes(self, root):
        xy, yx = JSObject(root), JSObject(root)
        xy.set("x", 1)
        xy.set("y", 2)
        yx.set("y", 2)
        yx.set("x", 1)
        assert xy.shape is not yx.shape
        assert xy.shape.shape_id != yx.shape.shape_id

    def test_ids_count_up_from_the_shared_root(self, root):
        empty = JSObject(root)
        assert empty.shape.shape_id == 0
        empty.set("a", 1)
        assert empty.shape.shape_id == 1
        empty.set("b", 2)
        assert empty.shape.shape_id == 2

    def test_overwriting_an_existing_property_keeps_the_shape(self, root):
        obj = JSObject(root)
        obj.set("x", 1)
        before = obj.shape
        obj.set("x", 99)
        assert obj.shape is before

    def test_delete_is_a_first_class_transition(self, root):
        obj = JSObject(root)
        obj.set("x", 1)
        obj.set("y", 2)
        obj.delete("x")
        assert obj.shape.names == ("y",)
        # A sibling that walks the same add/delete path lands on the
        # very same node — deleted layouts are cacheable too.
        twin = JSObject(root)
        twin.set("x", 1)
        twin.set("y", 2)
        twin.delete("x")
        assert twin.shape is obj.shape
        # ... and is distinct from the object built as {y} directly.
        direct = JSObject(root)
        direct.set("y", 2)
        assert direct.shape is not obj.shape

    def test_deleting_a_missing_property_is_a_no_op(self, root):
        obj = JSObject(root)
        obj.set("x", 1)
        before = obj.shape
        obj.delete("nope")
        assert obj.shape is before

    def test_array_length_never_transitions(self, root):
        arr = JSArray(root, [1, 2, 3])
        before = arr.shape
        assert arr.get("length") == 3
        arr.set("length", 10)
        arr.push(4)
        assert arr.shape is before

    def test_a_fresh_tree_rewinds_the_numbering(self, root):
        obj = JSObject(root)
        obj.set("x", 1)
        again = JSObject(ShapeTree().root)
        again.set("x", 1)
        assert again.shape.shape_id == obj.shape.shape_id
        assert again.shape is not obj.shape
        assert again.shape.ids is not obj.shape.ids


# ---------------------------------------------------------------------------
# The IC state machine


def _site():
    return TypeFeedback(num_params=0)


class TestInlineCacheStateMachine:
    def test_unvisited_site_reports_nothing(self):
        feedback = _site()
        assert feedback.ic_state(0) is None
        assert feedback.shape_ids(0) == ()

    def test_first_shape_transitions_to_mono(self):
        feedback = _site()
        assert feedback.record_shape(0, 7) == "transition"
        assert feedback.ic_state(0) == "mono"
        assert feedback.shape_ids(0) == (7,)

    def test_cached_shape_is_a_hit_in_any_state(self):
        feedback = _site()
        feedback.record_shape(0, 7)
        assert feedback.record_shape(0, 7) == "hit"
        feedback.record_shape(0, 8)
        assert feedback.ic_state(0) == "poly"
        assert feedback.record_shape(0, 7) == "hit"
        assert feedback.record_shape(0, 8) == "hit"

    def test_poly_preserves_observation_order(self):
        feedback = _site()
        for shape_id in (9, 3, 5):
            feedback.record_shape(0, shape_id)
        assert feedback.shape_ids(0) == (9, 3, 5)

    def test_capacity_overflow_tips_to_mega_as_a_transition(self):
        feedback = _site()
        for shape_id in range(MAX_IC_SHAPES):
            assert feedback.record_shape(0, shape_id) == "transition"
        assert feedback.ic_state(0) == "poly"
        # The straw that breaks it is still a *transition* (the IC
        # learned something); only steady-state mega accesses miss.
        assert feedback.record_shape(0, MAX_IC_SHAPES) == "transition"
        assert feedback.ic_state(0) == "mega"
        assert feedback.shape_ics[0] is MEGAMORPHIC
        assert feedback.record_shape(0, 0) == "miss"
        assert feedback.shape_ids(0) == ()

    def test_sites_are_independent(self):
        feedback = _site()
        feedback.record_shape(1, 7)
        assert feedback.ic_state(2) is None
        assert feedback.ic_state(1) == "mono"


# ---------------------------------------------------------------------------
# Shape-guarded compilation, determinism across backends and processes


def _fresh_process(script):
    """Stdout of ``script`` run by a new interpreter (``repro`` and
    ``tests`` importable)."""
    repo = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(repo, "src"), repo])
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout


def _run_traced(source, backend="closure"):
    tracer = Tracer()
    profiler = CycleProfiler()
    engine = Engine(
        config=FULL_SPEC,
        executor_backend=backend,
        tracer=tracer,
        cycle_profiler=profiler,
        **FAST
    )
    printed = engine.run_source(source)
    return printed, engine, list(tracer.events), profiler


def _guard_ops(profiler):
    return {
        instruction.op
        for record in profiler.binaries
        for instruction in record.native.instructions
    }


class TestShapeGuardedCompilation:
    def test_binaries_carry_shape_guards(self):
        printed, engine, _, profiler = _run_traced(POLY_SOURCE)
        assert printed == Interpreter().run_source(POLY_SOURCE)
        assert "guardshape" in _guard_ops(profiler)
        assert engine.stats.ic_transitions > 0

    def test_organic_failure_retrains_instead_of_relooping(self):
        _, engine, events, _ = _run_traced(POLY_SOURCE)
        retrains = [
            e
            for e in events
            if e["ch"] == "deopt"
            and e["event"] == "discard"
            and e["reason"] == "shape-retrain"
        ]
        shape_bails = [e for e in events if e["ch"] == "shape"]
        assert retrains, "no shape-retrain discard despite a poly receiver"
        assert engine.stats.shape_guard_bailouts == len(shape_bails)
        # Retraining keeps the failure count far below the bailout
        # limit: each stale binary bails once, not bailout_limit times.
        assert engine.stats.shape_guard_bailouts <= 2 * len(retrains)

    @pytest.mark.parametrize("backend", ["simple", "closure"])
    def test_backends_agree_bit_for_bit(self, backend):
        reference = _run_traced(POLY_SOURCE, "closure")
        other = _run_traced(POLY_SOURCE, backend)
        assert other[0] == reference[0]
        assert other[1].stats.as_dict() == reference[1].stats.as_dict()
        assert other[2] == reference[2]

    @pytest.mark.parametrize(
        "bench",
        ALL_SUITES["objects"],
        ids=[b.name for b in ALL_SUITES["objects"]],
    )
    def test_object_suite_is_shape_specialized_on_both_backends(self, bench):
        expected = Interpreter().run_source(bench.source)
        ledgers = []
        for backend in ("simple", "closure"):
            printed, engine, _, profiler = _run_traced(bench.source, backend)
            assert printed == expected
            assert "guardshape" in _guard_ops(profiler)
            ledgers.append(engine.stats.as_dict())
        assert ledgers[0] == ledgers[1]

    def test_shape_numbering_is_identical_across_processes(self):
        script = (
            "from repro import Engine, FULL_SPEC\n"
            "from repro.telemetry.tracing import Tracer\n"
            "tracer = Tracer()\n"
            "engine = Engine(config=FULL_SPEC, tracer=tracer,\n"
            "                hot_call_threshold=3, osr_backedge_threshold=10)\n"
            "engine.run_source(%r)\n"
            "for e in tracer.events:\n"
            "    if e['ch'] in ('ic', 'shape'):\n"
            "        print([e[k] for k in sorted(e) if k != 'ts'])\n"
            "import json\n"
            "print(json.dumps(engine.stats.summary(), sort_keys=True))\n"
            % POLY_SOURCE
        )
        runs = [_fresh_process(script) for _ in range(2)]
        assert runs[0] == runs[1]
        assert "'transition'" in runs[0]
        # The fresh processes agree with this long-lived one too.
        _, engine, events, _ = _run_traced(POLY_SOURCE)
        local = [
            str([e[k] for k in sorted(e) if k != "ts"])
            for e in events
            if e["ch"] in ("ic", "shape")
        ]
        local.append(json.dumps(engine.stats.summary(), sort_keys=True))
        assert "\n".join(local) + "\n" == runs[0]


#: POLY_SOURCE cut where the second insertion order first shows up, and
#: a sibling program that meets the same two layouts in the opposite
#: order — run as two scripts each so two engines can be interleaved.
INTERLEAVE_PARTS = {
    "price-first": (
        """\
function total(r) { return r.price * r.count; }
var a = {price: 3, count: 5};
var b = {count: 5, price: 3};
var s = 0;
for (var i = 0; i < 20; i++) s += total(a);
""",
        """\
for (var j = 0; j < 20; j++) s += total(b) + total(a);
print(s);
""",
    ),
    "count-first": (
        """\
function total(r) { return r.price + r.count; }
var a = {count: 5, price: 3, tag: 1};
var b = {price: 3, count: 5};
var s = 0;
for (var i = 0; i < 20; i++) s += total(a);
""",
        """\
for (var j = 0; j < 20; j++) s += total(b) - total(a);
print(s);
""",
    ),
}


class _InterleavedRun(object):
    """One engine fed a program's scripts one at a time."""

    def __init__(self, name, root):
        self.root = str(root)
        self.tracer = Tracer(channels=("ic", "shape"))
        self.engine = Engine(
            config=FULL_SPEC,
            executor_backend="closure",
            tracer=self.tracer,
            code_cache=DiskCodeCache(root=self.root),
            **FAST
        )
        self.scripts = list(INTERLEAVE_PARTS[name])

    def step(self):
        self.engine.run_source(self.scripts.pop(0))

    def observed(self):
        keys = sorted(
            name for _, _, files in os.walk(self.root) for name in files
        )
        return list(self.tracer.events), keys, self.engine.stats.as_dict()


def _solo_in_a_fresh_process(name, root):
    """``_InterleavedRun(name)`` run to completion with no history at all."""
    script = (
        "import json\n"
        "from tests.test_shapes import _InterleavedRun\n"
        "run = _InterleavedRun(%r, %r)\n"
        "run.step()\n"
        "run.step()\n"
        "print(json.dumps(run.observed()))\n" % (name, str(root))
    )
    return json.loads(_fresh_process(script))


class TestEnginesDoNotShareAnIdSpace:
    def test_interleaved_engines_match_their_solo_runs(self, tmp_path):
        runs = {
            name: _InterleavedRun(name, tmp_path / ("both-" + name))
            for name in INTERLEAVE_PARTS
        }
        for _ in range(2):
            for run in runs.values():
                run.step()
        for name, run in runs.items():
            events, keys, ledger = json.loads(json.dumps(run.observed()))
            solo = _solo_in_a_fresh_process(name, tmp_path / ("solo-" + name))
            assert events == solo[0]
            assert keys == solo[1]
            assert ledger == solo[2]
            assert any(e["ch"] == "shape" for e in events)
            assert keys, "nothing reached the disk cache"


# ---------------------------------------------------------------------------
# Chaos: every compiled shape guard has a live, exact recovery path


class TestShapeGuardChaos:
    @pytest.mark.parametrize("backend", ["simple", "closure"])
    def test_forced_shape_guards_recover_exactly(self, backend):
        expect = Engine(
            config=FULL_SPEC, executor_backend=backend, **FAST
        ).run_source(POLY_SOURCE)
        injector = GuardFaultInjector()
        profiler = CycleProfiler()
        engine = Engine(
            config=FULL_SPEC,
            executor_backend=backend,
            bailout_limit=CHAOS_BAILOUT_LIMIT,
            fault_injector=injector,
            cycle_profiler=profiler,
            **FAST
        )
        got = engine.run_source(POLY_SOURCE)
        assert got == expect
        fired_ops = {record["guard_op"] for record in injector.fired}
        assert "guardshape" in fired_ops, "no shape guard was ever forced"
        # Every executed shape guard fired exactly once, with forensics
        # blaming the injector — the PR 5 chaos contract extended to
        # the new guard op.
        known = len(profiler.binaries)
        checked = 0
        for native, fired, guards in injector.coverage():
            # A record holds a twin of its binary: look it up, don't match ids.
            record = profiler.native_profile(native)
            assert len(profiler.binaries) == known
            counts = record.resolved_counts()
            for index in guards:
                if native.instructions[index].op != "guardshape":
                    continue
                if counts[index] > 0:
                    assert index in fired
                    entry = record.forensics.get(index)
                    assert entry is not None
                    assert entry["reason"] == FAULT_INJECTED
                    checked += 1
        assert checked > 0


# ---------------------------------------------------------------------------
# The persistent code cache speaks shapes


def _run_cached(source, root, backend="closure"):
    cache = DiskCodeCache(root=str(root))
    engine = Engine(
        config=FULL_SPEC, executor_backend=backend, code_cache=cache, **FAST
    )
    printed = engine.run_source(source)
    return printed, engine, cache


class TestShapeKeyedCache:
    @pytest.mark.parametrize("backend", ["simple", "closure"])
    def test_shape_guarded_binaries_round_trip(self, tmp_path, backend):
        cold = _run_cached(POLY_SOURCE, tmp_path, backend)
        assert cold[2].stores > 0 and cold[2].hits == 0
        warm = _run_cached(POLY_SOURCE, tmp_path, backend)
        assert warm[2].hits == cold[2].stores
        assert warm[2].stores == 0
        assert warm[0] == cold[0]
        from repro.engine.stats import DISK_TRAFFIC_KEYS

        # Ledgers match modulo the host-side disk-traffic counters,
        # which differ by design (cold stores, warm hits).
        warm_ledger = warm[1].stats.as_dict()
        cold_ledger = cold[1].stats.as_dict()
        for key in DISK_TRAFFIC_KEYS:
            del warm_ledger[key], cold_ledger[key]
        assert warm_ledger == cold_ledger
        assert warm[1].stats.shape_guard_bailouts == (
            cold[1].stats.shape_guard_bailouts
        )

    def test_fingerprint_orders_and_sentinels(self):
        # The IC snapshot in the cache key preserves per-site shape
        # order (the guard tests shapes in that order) and keeps the
        # megamorphic sentinel distinct from any id list.
        assert _shape_ic_fingerprint({3: [1, 2]}) != _shape_ic_fingerprint(
            {3: [2, 1]}
        )
        assert _shape_ic_fingerprint({3: MEGAMORPHIC}) != _shape_ic_fingerprint(
            {3: [1]}
        )
        assert _shape_ic_fingerprint({}) == ()
        # Site order does not matter — sites are sorted by pc.
        left = {1: [4], 2: [5]}
        right = {2: [5], 1: [4]}
        assert _shape_ic_fingerprint(left) == _shape_ic_fingerprint(right)
