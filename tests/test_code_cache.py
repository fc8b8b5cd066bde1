"""The persistent cross-run code cache: keys, round trips, refusal.

The cache's contract (docs/COMPILE_PIPELINE.md) has two halves:

* **pure host-time optimization** — a warm run loads artifacts from
  disk instead of running MIR→LIR→codegen, but every simulated
  observable (output, cycles, the full stats ledger) is bit-identical
  to the cold run;
* **refuse rather than guess** — a plain object or array input is named
  by what the compiler reads of it (class, position among the inputs,
  an array's length) and relocated on load; any other input without a
  content name (a function argument) makes the compile uncacheable, and
  any stored byte the loader does not fully recognize reads as a miss
  followed by a normal compile.

``TestReferenceKeys`` and the invariance sweep at the end hold the
relocation half: a reference-keyed binary must not depend on anything
of its constants that the key leaves out.
"""

import io
import marshal

import pytest

from repro.cache import DiskCodeCache
from repro.cache import disk as cache_disk
from repro.cache.disk import (
    ENTRY_KINDS,
    _frame_entry,
    _unframe_entry,
    compile_inputs,
    content_key,
)
from repro.cache.serialize import FORMAT_VERSION, RELOCATABLE, freeze_result, thaw_result
from repro.engine import runtime_engine
from repro.engine.config import BASELINE, FULL_SPEC
from repro.engine.runtime_engine import Engine
from repro.engine.stats import DISK_TRAFFIC_KEYS
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.objects import JSArray, JSObject, ShapeTree
from repro.jsvm.values import JSFunction, NativeFunction, value_key
from repro.lir.wholefn import WholeExecutor, compile_whole
from repro.telemetry.tracing import Tracer
from repro.tools.cli import main as cli_main

from tests.conftest import FAST, run_interp
from tests.helpers import ROOT
from tests.test_whole_link import _pages, _suite_programs

HOT_LOOP = """
function poly(a) { return a * a + 3 * a + 1; }
var s = 0;
for (var i = 0; i < 80; i++) s += poly(i % 4);
print(s);
"""

OBJECT_ARGS = """
function getx(o) { return o.x; }
var box = {x: 7};
var s = 0;
for (var i = 0; i < 40; i++) s += getx(box);
print(s);
"""


def run_cached(source, root, backend="closure", trace=False):
    """One engine pass against the cache at ``root``."""
    tracer = Tracer() if trace else None
    cache = DiskCodeCache(root=str(root))
    engine = Engine(
        config=FULL_SPEC,
        executor_backend=backend,
        code_cache=cache,
        tracer=tracer,
        **FAST
    )
    printed = engine.run_source(source)
    events = list(tracer.events) if tracer else None
    return printed, engine, cache, events


class TestRoundTrip:
    @pytest.mark.parametrize("backend", ["simple", "closure", "whole"])
    def test_warm_run_is_bit_identical(self, tmp_path, backend):
        cold_printed, cold_engine, cold_cache, _ = run_cached(
            HOT_LOOP, tmp_path, backend
        )
        assert cold_cache.stores > 0 and cold_cache.hits == 0
        warm_printed, warm_engine, warm_cache, _ = run_cached(
            HOT_LOOP, tmp_path, backend
        )
        assert warm_cache.hits == cold_cache.stores
        assert warm_cache.stores == 0  # nothing recompiled
        assert warm_printed == cold_printed

        def simulated(ledger):
            # The disk-traffic counters are host-side accounting and
            # differ by design (cold stores, warm hits); every simulated
            # observable must still match bit for bit.
            return {
                key: value
                for key, value in ledger.items()
                if key not in DISK_TRAFFIC_KEYS
            }

        assert simulated(warm_engine.stats.as_dict()) == simulated(
            cold_engine.stats.as_dict()
        )
        assert simulated(warm_engine.stats.summary()) == simulated(
            cold_engine.stats.summary()
        )

    def test_disk_hit_replaces_pass_events(self, tmp_path):
        _, _, _, cold_events = run_cached(HOT_LOOP, tmp_path, trace=True)
        _, _, _, warm_events = run_cached(HOT_LOOP, tmp_path, trace=True)
        cold_labels = {(e["ch"], e["event"]) for e in cold_events}
        warm_labels = {(e["ch"], e["event"]) for e in warm_events}
        assert ("pass", "run") in cold_labels
        assert ("cache", "disk_hit") not in cold_labels
        # Warm compiles skip the optimization pipeline entirely: the
        # pass narration disappears and a disk_hit marker takes over.
        assert ("pass", "run") not in warm_labels
        assert ("cache", "disk_hit") in warm_labels
        hits = [e for e in warm_events if e["event"] == "disk_hit"]
        assert all(len(e["key"]) == 64 for e in hits)  # sha256 hex

    def test_closure_backend_warm_run_translates_its_hits(self, tmp_path):
        # The closure backend stores no module: a warm hit is translated
        # afresh from the thawed stream, and the run is still the cold one.
        cold_printed, cold_engine, _, _ = run_cached(OBJECT_ARGS, tmp_path, "closure")
        warm_printed, warm_engine, warm_cache, _ = run_cached(
            OBJECT_ARGS, tmp_path, "closure"
        )
        assert warm_cache.hits > 0
        assert warm_printed == cold_printed
        assert _simulated(warm_engine) == _simulated(cold_engine)

    def test_whole_backend_reuses_marshalled_module(self, tmp_path):
        run_cached(HOT_LOOP, tmp_path, "whole")
        _, warm_engine, warm_cache, _ = run_cached(HOT_LOOP, tmp_path, "whole")
        assert warm_cache.hits > 0
        # The warm load carried the whole backend's link record, and
        # running it attached the stored module instead of emitting one.
        natives = [
            state.native
            for state in warm_engine.states.values()
            if state.native is not None
        ]
        records = [native.disk_whole for native in natives if native.disk_whole is not None]
        assert records
        assert all("source" not in record for record in records)
        assert all(isinstance(record["code"], bytes) for record in records)
        assert warm_engine.executor.modules_linked == warm_cache.hits
        assert warm_engine.executor.modules_emitted == 0
        ran = [n for n in natives if n.whole_cache is not None]
        assert ran  # the thawed module was translated and executed

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        _, _, cold_cache, _ = run_cached(HOT_LOOP, tmp_path)
        stored = sorted((tmp_path / "code").rglob("*.bin"))
        assert stored
        for path in stored:
            path.write_bytes(b"not a marshalled artifact")
        warm_printed, warm_engine, warm_cache, _ = run_cached(HOT_LOOP, tmp_path)
        assert warm_cache.hits == 0
        # Every file was read and refused: the compile artifacts as
        # misses, the program entry on its own ledger.
        assert warm_cache.corrupt >= len(stored)
        assert warm_cache.misses >= len(stored) - 1
        assert warm_cache.program_loads == 0 and warm_cache.program_stores == 1
        assert warm_cache.stores == cold_cache.stores  # re-stored fresh
        assert warm_printed == ["%d" % sum(
            (i % 4) ** 2 + 3 * (i % 4) + 1 for i in range(80)
        )]

    @pytest.mark.parametrize("keep", [0, 1, 17, -1])
    def test_truncated_entry_degrades_to_miss(self, tmp_path, keep):
        """A torn write — any strict prefix of an entry — is a miss.

        ``keep`` counts bytes kept from the front (-1 means all but
        the last byte): an empty file, a header-only prefix, and a
        nearly complete entry must all fail the integrity frame and
        fall back to a fresh compile with identical output.
        """
        cold_printed, _, cold_cache, _ = run_cached(HOT_LOOP, tmp_path)
        stored = sorted((tmp_path / "code").rglob("*.bin"))
        assert stored
        for path in stored:
            blob = path.read_bytes()
            path.write_bytes(blob[: keep if keep >= 0 else len(blob) - 1])
        warm_printed, _, warm_cache, _ = run_cached(HOT_LOOP, tmp_path)
        assert warm_cache.hits == 0
        assert warm_cache.corrupt >= len(stored)  # both entry kinds
        assert warm_cache.misses >= len(stored) - 1  # compile probes only
        assert warm_cache.stores == cold_cache.stores
        assert warm_printed == cold_printed
        # The re-store healed the cache: a third run hits everything.
        healed_printed, _, healed_cache, _ = run_cached(HOT_LOOP, tmp_path)
        assert healed_cache.hits == cold_cache.stores
        assert healed_cache.program_loads == 1 and healed_cache.corrupt == 0
        assert healed_printed == cold_printed

    def test_bitflip_inside_payload_degrades_to_miss(self, tmp_path):
        """Corruption past the header is caught by the SHA-256 digest."""
        cold_printed, _, _, _ = run_cached(HOT_LOOP, tmp_path)
        from repro.cache.disk import _FRAME_HEADER_SIZE

        stored = sorted((tmp_path / "code").rglob("*.bin"))
        assert stored
        for path in stored:
            blob = bytearray(path.read_bytes())
            assert len(blob) > _FRAME_HEADER_SIZE
            blob[_FRAME_HEADER_SIZE + (len(blob) - _FRAME_HEADER_SIZE) // 2] ^= 0xFF
            path.write_bytes(bytes(blob))
        warm_printed, _, warm_cache, _ = run_cached(HOT_LOOP, tmp_path)
        assert warm_cache.hits == 0
        assert warm_printed == cold_printed

    def test_previous_format_compile_entry_is_a_corrupt_miss(self, tmp_path):
        """An intact compile artifact of the previous format under this
        format's key is refused, recompiled and re-stored."""
        cold_printed, _, cold_cache, _ = run_cached(HOT_LOOP, tmp_path)
        rewritten = 0
        for path in sorted((tmp_path / "code").rglob("*.bin")):
            payload = _unframe_entry(path.read_bytes())
            if payload[:1] != ENTRY_KINDS["compile"]:
                continue
            artifact = marshal.loads(payload[1:])
            artifact["format"] = FORMAT_VERSION - 1
            path.write_bytes(_frame_entry(ENTRY_KINDS["compile"] + marshal.dumps(artifact)))
            rewritten += 1
        assert rewritten == cold_cache.stores > 0
        warm_printed, _, warm_cache, _ = run_cached(HOT_LOOP, tmp_path)
        assert (warm_cache.hits, warm_cache.corrupt) == (0, rewritten)
        assert warm_cache.misses == warm_cache.stores == rewritten
        assert warm_printed == cold_printed

    def test_concurrent_writers_last_complete_frame_wins(self, tmp_path):
        """Two caches racing on one root never leave a torn entry.

        Simulates the race by interleaving two full runs against the
        same directory; every published entry must carry an intact
        frame afterwards and a follow-up run hits them all.
        """
        run_cached(HOT_LOOP, tmp_path)
        run_cached(HOT_LOOP, tmp_path)
        from repro.cache.disk import _unframe_entry

        stored = sorted((tmp_path / "code").rglob("*.bin"))
        assert stored
        for path in stored:
            assert _unframe_entry(path.read_bytes()) is not None
        _, _, warm_cache, _ = run_cached(HOT_LOOP, tmp_path)
        assert warm_cache.hits > 0 and warm_cache.misses == 0


ARRAY_ARGS = """
function total(a) { var s = 0; for (var i = 0; i < a.length; i++) s += a[i]; return s; }
var xs = [1, 2, 3, 4];
var s = 0;
for (var i = 0; i < 40; i++) s += total(xs);
print(s);
"""

#: ``third`` drops its bounds check for an array known to hold three
#: elements; a shorter one reads ``undefined`` there too, so the type
#: feedback is the same and only the key's length keeps them apart.
THIRD = """
function third(a) { return a[2]; }
var u = undefined;
var xs = %s;
var s;
for (var i = 0; i < 40; i++) s = third(xs);
print(s);
"""

#: A function that hands a function (and a builtin) to another.
FUNCTION_ARGS = """
function apply(g, x) { return g(x); }
function inc(x) { return x + 1; }
var s = 0;
for (var i = 0; i < 40; i++) s += apply(inc, i) + apply(Math.abs, -i);
print(s);
"""


@pytest.mark.parametrize("config", [FULL_SPEC, BASELINE], ids=lambda config: config.name)
def test_a_thawed_stream_is_the_frozen_one(tmp_path, monkeypatch, config):
    """Every binary the 38 suites store, through ``freeze_result``, marshal and
    ``thaw_result``: the one-pass thaw rebuilds each field of the stream."""
    binaries = []

    def freezing(result, code, inputs=()):
        artifact = freeze_result(result, code, inputs)
        thawed = thaw_result(marshal.loads(marshal.dumps(artifact)), code, inputs)
        binaries.append((result.native.instructions, thawed.native.instructions))
        return artifact

    monkeypatch.setattr(cache_disk, "freeze_result", freezing)
    programs = _suite_programs()
    assert len(programs) == 38
    stored = 0
    for name, source in programs:
        cache = DiskCodeCache(root=str(tmp_path / name.replace("/", "_")))
        Engine(config=config, code_cache=cache).run_source(source)
        stored += cache.stores
    # Every binary but the uncacheable few (no artifact exists to thaw).
    assert len(binaries) == stored > 100
    snapshots = 0
    for original, thawed in binaries:
        assert len(thawed) == len(original)
        for before, after in zip(original, thawed):
            assert (after.op, after.dest, after.srcs, after.targets) == (
                before.op,
                before.dest,
                before.srcs,
                before.targets,
            )
            # repr: ``1``, ``1.0`` and ``True`` stay apart, and a NaN equals itself.
            assert repr(after.extra) == repr(before.extra)
            if before.snapshot is None:
                assert after.snapshot is None
                continue
            old, new = before.snapshot, after.snapshot
            assert (new.pc, new.mode, new.num_args, new.num_locals) == (
                old.pc,
                old.mode,
                old.num_args,
                old.num_locals,
            )
            assert (new.locations, new.snapshot_id) == (old.locations, old.snapshot_id)
            # Virtual registers end with allocation: a thawed snapshot's are its locations.
            assert new.vregs == old.locations and new.vregs is not new.locations
            snapshots += 1
    assert snapshots > 100


def _simulated(engine):
    """Everything a cache must not move: the ledger minus disk traffic, the clock."""
    ledger = engine.stats.as_dict()
    return (
        {key: value for key, value in ledger.items() if key not in DISK_TRAFFIC_KEYS},
        engine.executor.cycles,
        engine.executor.instructions_executed,
        engine.interpreter.ops_executed,
    )


def _key(code, **inputs):
    return content_key(code, FULL_SPEC, **inputs)


class TestReferenceKeys:
    @pytest.mark.parametrize("backend", ["simple", "whole"])
    @pytest.mark.parametrize("source", [OBJECT_ARGS, ARRAY_ARGS], ids=["object", "array"])
    def test_object_and_array_arguments_hit_warm(self, tmp_path, backend, source):
        reference = Engine(config=FULL_SPEC, executor_backend=backend, **FAST)
        expected = reference.run_source(source)
        cold_printed, cold, cold_cache, _ = run_cached(source, tmp_path, backend)
        assert cold_cache.uncacheable == 0 and cold_cache.stores > 0
        warm_printed, warm, warm_cache, _ = run_cached(source, tmp_path, backend)
        assert warm_cache.hits == cold_cache.stores
        assert (warm_cache.misses, warm_cache.stores, warm_cache.uncacheable) == (0, 0, 0)
        assert warm_printed == cold_printed == expected == run_interp(source)
        assert _simulated(warm) == _simulated(cold) == _simulated(reference)
        if backend == "whole":
            assert warm.executor.modules_linked == warm_cache.hits
        # The thawed binary holds this run's object, not a stored copy.
        live = warm.interpreter.runtime.globals["box" if source is OBJECT_ARGS else "xs"]
        natives = [state.native for state in warm.states.values() if state.native is not None]
        assert any(any(value is live for value in native.immediates) for native in natives)

    def test_the_key_moves_with_class_length_aliasing_and_position(self):
        code = compile_source("function f(a, b) { return a; }").constants[0]

        def obj(**properties):
            return JSObject(ROOT, properties)

        a, b = obj(x=1), obj(y="two", z=3)
        # Contents are not keyed: other objects, other properties, one key.
        assert _key(code, param_values=[a, b]) == _key(code, param_values=[obj(), obj(w=4)])
        assert _key(code, param_values=[JSArray(ROOT, [1, 2]), 0]) == _key(
            code, param_values=[JSArray(ROOT, ["x", None]), 0]
        )
        keys = [
            _key(code, param_values=[a, b]),
            _key(code, param_values=[a, a]),  # aliasing
            _key(code, param_values=[JSArray(ROOT), b]),  # class
            _key(code, param_values=[JSArray(ROOT, [1]), b]),  # length
            _key(code, param_values=[JSArray(ROOT, [1, 2]), b]),
            _key(code, param_values=[b, 0]),  # position
            _key(code, param_values=[0, b]),
            _key(code, this_value=a, param_values=[a, b]),  # aliasing across groups
            _key(code, this_value=a, param_values=[b, a]),
            _key(code, this_value=a, param_values=[b, b]),
            _key(code, param_values=[a, b], osr_pc=2, osr_args=[a, b], osr_locals=[b]),
            _key(code, param_values=[a, b], osr_pc=2, osr_args=[a, b], osr_locals=[a]),
        ]
        assert None not in keys and len(set(keys)) == len(keys)

    def test_functions_natives_and_other_objects_stay_uncacheable(self, tmp_path):
        code = compile_source("function f(a) { return a; }").constants[0]

        class Special(JSObject):
            __slots__ = ()

        cache = DiskCodeCache(root=str(tmp_path))
        refused = [
            JSFunction(code, ()),
            NativeFunction("id", lambda this, args: args[0]),
            Special(ROOT),
            {"a": 1},
        ]
        for value in refused:
            assert cache.key_for(code, FULL_SPEC, param_values=[value]) is None
        assert cache.uncacheable == len(refused)
        printed, _, cold_cache, _ = run_cached(FUNCTION_ARGS, tmp_path)
        assert printed == run_interp(FUNCTION_ARGS)
        assert cold_cache.uncacheable > 0

    def test_a_slot_the_call_lacks_is_a_corrupt_miss_then_restores(self, tmp_path):
        cold_printed, _, cold_cache, _ = run_cached(OBJECT_ARGS, tmp_path)
        retargeted = 0
        for path in sorted((tmp_path / "code").rglob("*.bin")):
            payload = _unframe_entry(path.read_bytes())
            if payload[:1] != ENTRY_KINDS["compile"]:
                continue
            artifact = marshal.loads(payload[1:])
            immediates = artifact["native"]["immediates"]
            slots = [
                index
                for index, value in enumerate(immediates)
                if type(value) is tuple and value[0] == "r"
            ]
            for index in slots:
                immediates[index] = ("r", 99)
            if slots:
                retargeted += 1
                path.write_bytes(
                    _frame_entry(ENTRY_KINDS["compile"] + marshal.dumps(artifact))
                )
        assert retargeted == 1  # ``getx``, keyed on ``box``
        warm_printed, _, warm_cache, _ = run_cached(OBJECT_ARGS, tmp_path)
        assert (warm_cache.corrupt, warm_cache.misses, warm_cache.stores) == (1, 1, 1)
        assert warm_cache.hits == cold_cache.stores - 1
        assert warm_printed == cold_printed == ["280"]
        healed_printed, _, healed_cache, _ = run_cached(OBJECT_ARGS, tmp_path)
        assert healed_cache.hits == cold_cache.stores and healed_cache.corrupt == 0
        assert healed_printed == cold_printed

    def test_programs_sharing_a_function_pass_arrays_of_other_lengths(self, tmp_path):
        programs = [THIRD % array for array in ("[u, u, u]", "[u, u]", "[undefined, u, u]")]
        caches = []
        for source in programs:
            printed, _, cache, _ = run_cached(source, tmp_path)
            assert printed == run_interp(source) == ["undefined"], source
            caches.append(cache)
        # The length-2 array compiles its own ``third``; the other length-3
        # one hits the first's (each top-level script is its own code).
        assert [cache.hits for cache in caches] == [0, 0, 1]

    def test_a_binary_never_holds_an_arrays_elements(self, tmp_path):
        # Folding ``a + ""`` would bake in the elements the compile saw:
        # wrong once a store changes them, and wrong for the next array of
        # the same length to hit the stored binary.
        mutated = """
        function show(a) { return a + ""; }
        var xs = [1];
        var s;
        for (var i = 0; i < 30; i++) { xs[0] = i; s = show(xs); }
        print(s);
        """
        assert run_cached(mutated, tmp_path / "m")[0] == ["29"]
        shown = "function show(a) { return a + ''; } var xs = [%d]; var s;" \
            " for (var i = 0; i < 30; i++) s = show(xs); print(s);"
        assert run_cached(shown % 1, tmp_path / "s")[0] == ["1"]
        printed, _, cache, _ = run_cached(shown % 2, tmp_path / "s")
        assert printed == ["2"] and cache.hits > 0


class TestKeySensitivity:
    """Every compile input must move the content key."""

    def _code(self, source="function id(x) { return x; }"):
        return compile_source(source).constants[0]

    def test_identical_inputs_identical_key(self, tmp_path):
        cache = DiskCodeCache(root=str(tmp_path))
        code = self._code()
        assert cache.key_for(code, FULL_SPEC, param_values=[3]) == cache.key_for(
            code, FULL_SPEC, param_values=[3]
        )

    def test_config_values_and_flags_move_the_key(self, tmp_path):
        cache = DiskCodeCache(root=str(tmp_path))
        code = self._code()
        keys = {
            cache.key_for(code, FULL_SPEC, param_values=[3]),
            cache.key_for(code, BASELINE),
            cache.key_for(code, FULL_SPEC, param_values=[4]),
            cache.key_for(code, FULL_SPEC, param_values=[3], generic=True),
            cache.key_for(code, FULL_SPEC, param_values=[3], osr_pc=2,
                          osr_args=[3], osr_locals=[]),
        }
        assert len(keys) == 5 and None not in keys

    def test_code_body_moves_the_key(self, tmp_path):
        cache = DiskCodeCache(root=str(tmp_path))
        first = cache.key_for(self._code(), FULL_SPEC, param_values=[3])
        second = cache.key_for(
            self._code("function id(x) { return x + 0; }"),
            FULL_SPEC,
            param_values=[3],
        )
        assert first != second

    def test_nested_body_moves_the_outer_key(self, tmp_path):
        cache = DiskCodeCache(root=str(tmp_path))
        outer = "function outer(x) { function inner(y) { return y + %d; } return inner(x); }"
        keys = {
            cache.key_for(self._code(outer % n), FULL_SPEC, param_values=[3]) for n in (1, 2, 1)
        }
        assert len(keys) == 2 and None not in keys

    def test_fingerprint_is_memoised_as_a_digest_only(self, tmp_path):
        cache = DiskCodeCache(root=str(tmp_path))
        toplevel = compile_source("function f(a) { function g(b) { return b; } return g(a); }")
        function = toplevel.constants[0]
        assert toplevel.fingerprint is None and function.fingerprint is None
        key = cache.key_for(function, FULL_SPEC, param_values=[3])
        nested = function.constants[0]
        for code in (function, nested):
            assert isinstance(code.fingerprint, str) and len(code.fingerprint) == 64
        assert toplevel.fingerprint is None
        # A second compile of the same text has other code ids, the same key.
        again = compile_source("function f(a) { function g(b) { return b; } return g(a); }")
        assert cache.key_for(again.constants[0], FULL_SPEC, param_values=[3]) == key

    def test_rewriting_instructions_after_a_key_moves_the_key(self, tmp_path):
        from repro.opts.loop_inversion import rotate_loops

        cache = DiskCodeCache(root=str(tmp_path))
        source = "function f(n) { while (n) { n--; } return n; }"
        code = self._code(source)
        before = cache.key_for(code, FULL_SPEC, param_values=[3])
        assert rotate_loops(code) == 1
        after = cache.key_for(code, FULL_SPEC, param_values=[3])
        assert after != before
        fresh = self._code(source)
        rotate_loops(fresh)
        assert cache.key_for(fresh, FULL_SPEC, param_values=[3]) == after

    def test_feedback_moves_the_key(self, tmp_path):
        from repro.jsvm.feedback import TypeFeedback

        cache = DiskCodeCache(root=str(tmp_path))
        code = self._code()
        empty = TypeFeedback(1)
        seen_int = TypeFeedback(1)
        seen_int.record_args([3])
        assert cache.key_for(code, FULL_SPEC, feedback=empty) != cache.key_for(
            code, FULL_SPEC, feedback=seen_int
        )


class TestStoreManagement:
    def test_stats_and_clear(self, tmp_path):
        _, _, cache, _ = run_cached(HOT_LOOP, tmp_path)
        info = cache.stats()
        assert info["kinds"]["compile"]["entries"] == cache.stores > 0
        assert info["kinds"]["program"]["entries"] == cache.program_stores == 1
        assert info["entries"] == cache.stores + 1
        assert info["bytes"] > 0
        assert info["root"] == str(tmp_path)
        removed = cache.clear()
        assert removed == info["entries"]
        assert cache.stats()["entries"] == 0

    def test_cli_cache_subcommand(self, tmp_path, monkeypatch):
        script = tmp_path / "prog.js"
        script.write_text(HOT_LOOP)
        root = tmp_path / "store"

        def run_cli(argv):
            out = io.StringIO()
            return cli_main(argv, out=out), out.getvalue()

        code, _ = run_cli(["run", str(script), "--code-cache", str(root)])
        assert code == 0
        code, output = run_cli(["cache", "stats", "--dir", str(root)])
        assert code == 0
        assert "entries" in output and "0" not in output.split("entries:")[1].split("\n")[0].strip()
        code, output = run_cli(["cache", "clear", "--dir", str(root)])
        assert code == 0
        assert "removed" in output
        code, output = run_cli(["cache", "stats", "--dir", str(root)])
        assert "entries:    0" in output

    def test_default_root_honours_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envroot"))
        cache = DiskCodeCache()
        assert cache.root == str(tmp_path / "envroot")


TWO_FUNCS = """
function f(a) { return a * 2 + 1; }
function g(a) { return a * 3 + 2; }
var s = 0;
for (var i = 0; i < 80; i++) { s += f(i % 4); s += g(i % 4); }
print(s);
"""


class TestEviction:
    """LRU-by-mtime pruning under entry- and byte-count pressure."""

    def _aged_store(self, tmp_path):
        """Fill the cache and pin deterministic mtimes (oldest first)."""
        import os

        run_cached(TWO_FUNCS, tmp_path)
        stored = sorted((tmp_path / "code").rglob("*.bin"))
        assert len(stored) >= 2
        for age, path in enumerate(stored):
            os.utime(str(path), (1000 + age, 1000 + age))
        return stored

    def test_evict_by_max_entries_drops_oldest_first(self, tmp_path):
        stored = self._aged_store(tmp_path)
        cache = DiskCodeCache(root=str(tmp_path))
        removed = cache.evict(max_entries=1)
        assert removed == len(stored) - 1
        assert cache.evictions == removed
        survivors = sorted((tmp_path / "code").rglob("*.bin"))
        assert survivors == [stored[-1]]  # the youngest entry survives

    def test_evict_by_max_bytes(self, tmp_path):
        import os

        stored = self._aged_store(tmp_path)
        sizes = [os.path.getsize(str(path)) for path in stored]
        cache = DiskCodeCache(root=str(tmp_path))
        removed = cache.evict(max_bytes=sum(sizes) - 1)  # one over budget
        assert removed == 1
        assert not stored[0].exists()  # the oldest paid for it
        assert cache.stats()["bytes"] <= sum(sizes) - sizes[0]

    def test_evict_without_bounds_is_a_noop(self, tmp_path):
        stored = self._aged_store(tmp_path)
        cache = DiskCodeCache(root=str(tmp_path))
        assert cache.evict() == 0
        assert cache.evictions == 0
        assert sorted((tmp_path / "code").rglob("*.bin")) == stored

    def test_stats_carry_corrupt_and_eviction_counters(self, tmp_path):
        self._aged_store(tmp_path)
        stored = sorted((tmp_path / "code").rglob("*.bin"))
        stored[0].write_bytes(b"garbage")
        _, _, warm_cache, _ = run_cached(TWO_FUNCS, tmp_path)
        info = warm_cache.stats()
        assert info["corrupt"] == warm_cache.corrupt >= 1
        assert info["evictions"] == 0
        warm_cache.evict(max_entries=0)
        assert warm_cache.stats()["evictions"] == warm_cache.evictions > 0

    def test_evicted_entries_read_as_misses_then_heal(self, tmp_path):
        cold_printed, _, cold_cache, _ = run_cached(TWO_FUNCS, tmp_path)
        cold_cache.evict(max_entries=0)
        warm_printed, _, warm_cache, _ = run_cached(TWO_FUNCS, tmp_path)
        assert warm_printed == cold_printed
        assert warm_cache.hits == 0
        assert warm_cache.stores == cold_cache.stores  # fully re-stored
        healed_printed, _, healed_cache, _ = run_cached(TWO_FUNCS, tmp_path)
        assert healed_printed == cold_printed
        assert healed_cache.hits == cold_cache.stores


class TestEvictionConcurrency:
    """``evict`` racing writers and other evictors (docs/COMPILE_PIPELINE.md).

    The prune unlinks each victim, so a concurrent ``store``
    republishing the same key either becomes the (complete) victim or
    survives under the final name — never a torn read — and an entry
    another evictor already removed is skipped without being counted.
    """

    def test_vanished_victim_is_skipped_uncounted(self, tmp_path, monkeypatch):
        import os

        run_cached(TWO_FUNCS, tmp_path)
        cache = DiskCodeCache(root=str(tmp_path))
        entries = cache.stats()["entries"]
        assert entries >= 2
        real_unlink = os.unlink
        stolen = []

        def racing_unlink(path, *args, **kwargs):
            # A concurrent evictor wins the race for the first victim.
            if not stolen:
                stolen.append(path)
                real_unlink(path)
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr("repro.cache.disk.os.unlink", racing_unlink)
        removed = cache.evict(max_entries=0)
        assert len(stolen) == 1
        assert removed == entries - 1  # the stolen entry is not ours
        assert cache.evictions == removed
        assert cache.stats()["entries"] == 0

    def test_a_victim_that_cannot_be_unlinked_stays_whole(
        self, tmp_path, monkeypatch
    ):
        import os

        cold_printed, _, _, _ = run_cached(TWO_FUNCS, tmp_path)
        cache = DiskCodeCache(root=str(tmp_path))
        entries = cache.stats()["entries"]
        assert entries >= 2
        frames = {
            str(path): path.read_bytes() for path in (tmp_path / "code").rglob("*.bin")
        }
        real_unlink = os.unlink
        refused = []

        def refusing_unlink(path, *args, **kwargs):
            # The first victim cannot be removed (a permission error).
            if not refused:
                refused.append(path)
                raise PermissionError(path)
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr("repro.cache.disk.os.unlink", refusing_unlink)
        removed = cache.evict(max_entries=0)
        monkeypatch.undo()
        assert removed == entries - 1  # the refused entry is not counted
        assert cache.evictions == removed
        left = [path for path in (tmp_path / "code").rglob("*") if path.is_file()]
        assert [str(path) for path in left] == refused
        assert left[0].read_bytes() == frames[refused[0]]  # untouched, whole
        warm_printed, _, warm_cache, _ = run_cached(TWO_FUNCS, tmp_path)
        assert warm_printed == cold_printed
        assert warm_cache.corrupt == 0

    def test_concurrent_writer_never_tears_an_entry(self, tmp_path):
        import threading

        printed, _, cache, _ = run_cached(TWO_FUNCS, tmp_path)
        stop = threading.Event()
        failures = []

        def rewriter():
            # Re-run the workload against the same root over and over:
            # every pass republishes the same keys via store's atomic
            # rename while the main thread is pruning them.
            while not stop.is_set():
                try:
                    again, _, _, _ = run_cached(TWO_FUNCS, tmp_path)
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(repr(exc))
                    return
                if again != printed:  # pragma: no cover - failure path
                    failures.append("output diverged: %r" % (again,))
                    return

        writer = threading.Thread(target=rewriter)
        writer.start()
        try:
            for _ in range(40):
                cache.evict(max_entries=0)
        finally:
            stop.set()
            writer.join(timeout=30)
        assert not failures
        # Whatever survived the crossfire reads back whole: a full
        # warm pass sees only hits or misses, never a torn frame.
        _, _, verify_cache, _ = run_cached(TWO_FUNCS, tmp_path)
        assert verify_cache.corrupt == 0
        import glob
        import os

        # Every publish renamed or removed its temp file: none is left
        # under the store once the writers are done.
        leftovers = glob.glob(os.path.join(str(tmp_path), "**", "*.tmp"), recursive=True)
        assert leftovers == []


class TestEngineStatsSurface:
    def test_disk_counters_fold_into_engine_stats(self, tmp_path):
        run_cached(HOT_LOOP, tmp_path)
        _, warm_engine, warm_cache, _ = run_cached(HOT_LOOP, tmp_path)
        ledger = warm_engine.stats.as_dict()
        assert ledger["disk_hits"] == warm_cache.hits > 0
        assert ledger["disk_misses"] == warm_cache.misses
        assert ledger["disk_stores"] == warm_cache.stores
        assert ledger["disk_corrupt"] == warm_cache.corrupt
        assert ledger["disk_evictions"] == warm_cache.evictions
        summary = warm_engine.stats.summary()
        assert summary["disk_hits"] == warm_cache.hits
        assert summary["disk_misses"] == warm_cache.misses

    def test_uncached_engine_reports_zero_disk_traffic(self):
        from repro.engine.runtime_engine import Engine

        engine = Engine(config=FULL_SPEC, **FAST)
        engine.run_source(HOT_LOOP)
        summary = engine.stats.summary()
        assert summary["disk_hits"] == 0 and summary["disk_misses"] == 0


class TestEvictionCLI:
    def run_cli(self, argv):
        out = io.StringIO()
        return cli_main(argv, out=out), out.getvalue()

    def test_cache_evict_subcommand(self, tmp_path):
        script = tmp_path / "prog.js"
        script.write_text(TWO_FUNCS)
        root = tmp_path / "store"
        code, _ = self.run_cli(["run", str(script), "--code-cache", str(root)])
        assert code == 0
        code, output = self.run_cli(
            ["cache", "evict", "--dir", str(root), "--max-entries", "1"]
        )
        assert code == 0
        assert "evicted" in output and "1 entries" in output
        code, output = self.run_cli(["cache", "stats", "--dir", str(root)])
        assert "entries:    1" in output

    def test_cache_evict_requires_a_bound(self, tmp_path):
        with pytest.raises(SystemExit, match="need --max-bytes"):
            self.run_cli(["cache", "evict", "--dir", str(tmp_path)])


# -- the invariance sweep: nothing of a constant but its key is read -------------


def _twin(value, tree):
    """Same class and length as ``value``; other elements, other property
    values and one more property, in a shape tree of its own."""
    if type(value) is JSArray:
        twin = JSArray(tree.root, ["twin-%d" % index for index in range(len(value.elements))])
    else:
        twin = JSObject(tree.root)
    for name in value.shape.names:
        twin.set(name, "twin-" + name)
    twin.set("twin", twin)
    return twin


class _TwinEveryReference(object):
    """Wraps the engine's ``compile_function``: each compile keyed on a
    plain object or array is compiled again against twins of its
    references (one twin per distinct reference, so the aliasing holds)
    and must freeze — and emit on ``whole`` — to the same artifact."""

    def __init__(self, monkeypatch):
        self.compared = 0
        self.compile = runtime_engine.compile_function
        self.tree = ShapeTree()
        self.executor = WholeExecutor(Interpreter())
        monkeypatch.setattr(runtime_engine, "compile_function", self)

    def image(self, result, code, inputs):
        capture = {}
        compile_whole(result.native, self.executor, capture=capture)
        frozen = freeze_result(result, code, compile_inputs(**inputs)[1])
        return repr(frozen), capture["source"]

    def __call__(self, code, config, tracer=None, **inputs):
        result = self.compile(code, config, tracer=tracer, **inputs)
        values = compile_inputs(**inputs)[1]
        references = [value for value in values if value_key(value)[0] == "ref"]
        if not references or any(type(value) not in RELOCATABLE for value in references):
            return result
        twins = {}
        for value in references:
            if id(value) not in twins:
                twins[id(value)] = _twin(value, self.tree)

        def swap(group):
            return None if group is None else [twins.get(id(value), value) for value in group]

        this_value = inputs["this_value"]
        twin_inputs = dict(
            inputs,
            this_value=twins.get(id(this_value), this_value),
            param_values=swap(inputs["param_values"]),
            osr_args=swap(inputs["osr_args"]),
            osr_locals=swap(inputs["osr_locals"]),
        )
        twin = self.compile(code, config, **twin_inputs)
        assert self.image(twin, code, twin_inputs) == self.image(result, code, inputs), code.name
        self.compared += 1
        return result


def _sweep(programs, monkeypatch):
    twins = _TwinEveryReference(monkeypatch)
    for name, source in programs:
        Engine(config=FULL_SPEC).run_source(source)
    return twins.compared


#: Suite programs whose reference constants meet a shape guard, an
#: element load and a property load, beside three pages.
SWEEP_SAMPLE = [
    ("objects", "poly-records"),
    ("sunspider", "access-binary-trees"),
    ("v8", "splay"),
    ("kraken", "ai-astar"),
]


def test_reference_constants_are_never_read(monkeypatch):
    programs = _suite_programs(SWEEP_SAMPLE) + _pages(per_seed=1)
    assert _sweep(programs, monkeypatch) > 30


@pytest.mark.nightly
def test_reference_constants_are_never_read_anywhere(monkeypatch):
    programs = _suite_programs() + _pages()
    assert len(programs) == 38 + 48
    assert _sweep(programs, monkeypatch) > 0
