"""The persistent cross-run code cache: keys, round trips, refusal.

The cache's contract (docs/COMPILE_PIPELINE.md) has two halves:

* **pure host-time optimization** — a warm run loads artifacts from
  disk instead of running MIR→LIR→codegen, but every simulated
  observable (output, cycles, the full stats ledger) is bit-identical
  to the cold run;
* **refuse rather than guess** — any compile input without a content
  name (an object-reference argument) makes the compile uncacheable,
  and any stored byte the loader does not fully recognize reads as a
  miss followed by a normal compile.
"""

import io

import pytest

from repro.cache import DiskCodeCache
from repro.engine.config import BASELINE, FULL_SPEC
from repro.engine.runtime_engine import Engine
from repro.engine.stats import DISK_TRAFFIC_KEYS
from repro.jsvm.bytecode import CodeObject
from repro.jsvm.bytecompiler import compile_source
from repro.telemetry.tracing import Tracer
from repro.tools.cli import main as cli_main

from tests.conftest import FAST

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
    """One engine pass against the cache at ``root``.

    Resets the process-global code-id counter first so repeat runs
    produce comparable ids (and therefore comparable stats ledgers).
    """
    CodeObject._next_id = 1
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

    def test_closure_backend_reuses_marshalled_module(self, tmp_path):
        run_cached(HOT_LOOP, tmp_path, "closure")
        _, warm_engine, warm_cache, _ = run_cached(HOT_LOOP, tmp_path, "closure")
        assert warm_cache.hits > 0
        # At least one loaded binary carried the generated-source +
        # marshalled-module blob for the closure backend to reuse.
        natives = [
            state.native
            for state in warm_engine.states.values()
            if state.native is not None
        ]
        assert any(native.disk_closure is not None for native in natives)
        source_text, code_bytes = next(
            native.disk_closure
            for native in natives
            if native.disk_closure is not None
        )
        assert isinstance(source_text, str) and isinstance(code_bytes, bytes)

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


class TestUncacheable:
    def test_object_arguments_refuse_caching(self, tmp_path):
        printed, _, cache, _ = run_cached(OBJECT_ARGS, tmp_path)
        assert printed == ["280"]
        # ``getx`` specializes on a heap object: identity, not content.
        assert cache.uncacheable > 0
        warm_printed, _, warm_cache, _ = run_cached(OBJECT_ARGS, tmp_path)
        assert warm_printed == printed
        assert warm_cache.uncacheable > 0

    def test_key_for_returns_none_for_reference_values(self):
        cache = DiskCodeCache.__new__(DiskCodeCache)
        cache.uncacheable = 0
        code = compile_source("function id(x) { return x; }").constants[0]
        assert cache.key_for(code, FULL_SPEC, param_values=[{"a": 1}]) is None
        assert cache.uncacheable == 1


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
        from repro.jsvm.values import UNDEFINED

        seen_int.record_args([3], UNDEFINED)
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
    """``evict`` racing writers and other evictors (docs/CACHE.md).

    The prune renames each victim aside to a ``.evict`` tombstone
    before unlinking, so a concurrent ``store`` republishing the same
    key either becomes the (complete) victim or survives under the
    final name — never a torn read — and an entry another evictor
    already removed is skipped without being counted.
    """

    def test_vanished_victim_is_skipped_uncounted(self, tmp_path, monkeypatch):
        import os

        run_cached(TWO_FUNCS, tmp_path)
        cache = DiskCodeCache(root=str(tmp_path))
        entries = cache.stats()["entries"]
        assert entries >= 2
        real_replace = os.replace
        stolen = []

        def racing_replace(src, dst):
            # A concurrent evictor wins the race for the first victim.
            if not stolen and dst.endswith(".evict"):
                stolen.append(src)
                os.unlink(src)
            return real_replace(src, dst)

        monkeypatch.setattr("repro.cache.disk.os.replace", racing_replace)
        removed = cache.evict(max_entries=0)
        assert len(stolen) == 1
        assert removed == entries - 1  # the stolen entry is not ours
        assert cache.evictions == removed
        assert cache.stats()["entries"] == 0

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

        leftovers = glob.glob(
            os.path.join(str(tmp_path), "code", "**", "*.evict"), recursive=True
        )
        assert leftovers == []

    def test_interrupted_prune_tombstones_are_swept_and_invisible(self, tmp_path):
        import os

        run_cached(TWO_FUNCS, tmp_path)
        cache = DiskCodeCache(root=str(tmp_path))
        entries = cache.stats()["entries"]
        stored = sorted((tmp_path / "code").rglob("*.bin"))
        # Simulate a prune that died between rename and unlink.
        os.replace(str(stored[0]), str(stored[0]) + ".evict")
        assert cache.stats()["entries"] == entries - 1  # not an entry
        cache.evict(max_entries=10_000)  # bound satisfied: no victims
        assert cache.evictions == 0
        leftovers = list((tmp_path / "code").rglob("*.evict"))
        assert leftovers == []  # ...but the sweep still ran


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
