"""Tests for the cycle-exact profiling subsystem (docs/PROFILING.md).

The profiler's contract has two halves:

* **Exactness** — every cycle in ``EngineStats.total_cycles`` is
  attributed to a (function, tier, block) row; ``attributed_cycles()``
  and the ``attribution()`` row sum both equal ``total_cycles`` on
  every benchmark of every suite, on both executor backends.
* **Zero observer effect** — a profiled run is bit-identical to an
  unprofiled one: same printed output, same ``EngineStats``, same JIT
  trace stream (modulo the one trailing ``profile.summary`` event).

Plus the reporting layer: collapsed stacks round-trip through the
parser and sum to ``total_cycles``, the guard-forensics table matches
the ``bailout.guard`` event stream, and the annotated disassembly
carries per-instruction counts for specialized binaries.
"""

import json
import re

import pytest

from repro.engine.config import FULL_SPEC
from repro.engine.runtime_engine import Engine
from repro.telemetry.profiler import ENTRY_BLOCK, TIERS, CycleProfiler, block_bodies
from repro.telemetry.reports import (
    annotate_function,
    format_function_table,
    function_table_rows,
    parse_collapsed,
    profile_as_dict,
    to_collapsed,
    write_collapsed,
)
from repro.telemetry.tracing import Tracer
from repro.bench.harness import run_benchmark
from repro.workloads import ALL_SUITES

#: Thresholds that compile quickly but under which every suite
#: benchmark still completes (the tier-1 FAST thresholds trip a
#: pre-existing engine issue on access-binary-trees).
FAST5 = {"hot_call_threshold": 5, "osr_backedge_threshold": 20}

#: Every benchmark of every suite, for the exactness sweep.
ALL_BENCHMARKS = [
    (suite_name, benchmark.name)
    for suite_name, suite in sorted(ALL_SUITES.items())
    for benchmark in suite
]

#: Two benchmarks per suite for the slower reference backend.
BENCH_SUBSET = [
    ("sunspider", "access-nsieve"),
    ("sunspider", "string-unpack-code"),
    ("v8", "richards"),
    ("v8", "regexp"),
    ("kraken", "stanford-crypto-ccm"),
    ("kraken", "audio-beat-detection"),
]

HOT_SRC = """
function square(x) { return x * x; }
var total = 0;
for (var i = 0; i < 50; i++) total += square(7);
print(total);
"""

#: Specializes on (2, 3), deopts on new args, then a type-guard
#: bailout on the generic binary — exercises every transition tier.
DEOPT_SRC = """
function scale(v, k) { return v * k + 1; }
var t = 0;
for (var i = 0; i < 9; i++) t += scale(2, 3);
t += scale(10, 10);
t += scale("oops", 3);
print(t);
"""

OSR_SRC = """
function f(n) { var s = 0; for (var i = 0; i < n; i++) { s = s + i; } return s; }
print(f(500));
print(f(501));
"""


def _bench(suite_name, bench_name):
    for benchmark in ALL_SUITES[suite_name]:
        if benchmark.name == bench_name:
            return benchmark
    raise AssertionError("no benchmark %s/%s" % (suite_name, bench_name))


def _run(source, backend="closure", trace=False, profile=False, **engine_kwargs):
    """One engine run; returns (observables, events or None, engine)."""
    tracer = Tracer() if trace else None
    profiler = CycleProfiler() if profile else None
    engine = Engine(
        config=FULL_SPEC,
        executor_backend=backend,
        tracer=tracer,
        cycle_profiler=profiler,
        **dict(FAST5, **engine_kwargs)
    )
    printed = engine.run_source(source)
    observables = {
        "printed": list(printed),
        "summary": engine.stats.summary(),
        "stats": engine.stats.as_dict(),
        "cycles": engine.executor.cycles,
        "native_instructions": engine.executor.instructions_executed,
        "interp_ops": engine.interpreter.ops_executed,
    }
    return observables, (list(tracer.events) if tracer is not None else None), engine


def _assert_exact(profiler, stats):
    """The exactness invariant, all three ways of summing."""
    total = stats.total_cycles
    assert profiler.attributed_cycles() == total
    assert sum(row["cycles"] for row in profiler.attribution()) == total
    totals = profiler.function_totals()
    assert sum(entry["self_cycles"] for entry in totals.values()) == total


class TestExactness:
    """Attributed cycles sum to total_cycles on every suite benchmark."""

    @pytest.mark.parametrize(
        "suite_name,bench_name", ALL_BENCHMARKS,
        ids=["%s/%s" % pair for pair in ALL_BENCHMARKS],
    )
    def test_closure_backend_exact(self, suite_name, bench_name):
        run = run_benchmark(
            _bench(suite_name, bench_name), FULL_SPEC,
            engine_kwargs=dict(FAST5), profile=True,
        )
        total = run.summary["total_cycles"]
        assert run.profile.attributed_cycles() == total
        assert sum(row["cycles"] for row in run.profile.attribution()) == total

    @pytest.mark.parametrize(
        "suite_name,bench_name", BENCH_SUBSET,
        ids=["%s/%s" % pair for pair in BENCH_SUBSET],
    )
    def test_reference_backend_exact(self, suite_name, bench_name):
        run = run_benchmark(
            _bench(suite_name, bench_name), FULL_SPEC,
            engine_kwargs=dict(FAST5, executor_backend="simple"), profile=True,
        )
        total = run.summary["total_cycles"]
        assert run.profile.attributed_cycles() == total
        assert sum(row["cycles"] for row in run.profile.attribution()) == total

    @pytest.mark.parametrize("backend", ["simple", "closure", "whole"])
    @pytest.mark.parametrize("source", [HOT_SRC, DEOPT_SRC, OSR_SRC])
    def test_scripted_transitions_exact(self, backend, source):
        _obs, _events, engine = _run(source, backend, profile=True)
        _assert_exact(engine.cycle_profiler, engine.stats)

    @pytest.mark.parametrize("backend", ["simple", "closure", "whole"])
    @pytest.mark.parametrize(
        "source", [HOT_SRC, DEOPT_SRC, OSR_SRC], ids=["hot", "deopt", "osr"]
    )
    def test_each_tier_sums_to_its_ledger_field(self, backend, source):
        """Every compile is charged on the program's clock, to the compile
        tier, as are the other tiers to their own ledger fields."""
        _obs, _events, engine = _run(source, backend, profile=True)
        profiler = engine.cycle_profiler
        ledger = engine.stats.as_dict()
        by_tier = dict.fromkeys(TIERS, 0)
        for row in profiler.attribution():
            by_tier[row["tier"]] += row["cycles"]
        assert by_tier == {
            "interp": ledger["interp_cycles"],
            "native": ledger["native_cycles"],
            "compile": ledger["compile_cycles"],
            "bailout": ledger["bailout_cycles"],
            "invalidate": ledger["invalidation_cycles"],
        }
        assert by_tier["compile"] > 0
        assert sum(profiler.compile_counts.values()) == ledger["compiles"]


class TestBitIdentity:
    """Profiling never perturbs any deterministic observable."""

    @pytest.mark.parametrize("backend", ["simple", "closure", "whole"])
    @pytest.mark.parametrize("source", [HOT_SRC, DEOPT_SRC, OSR_SRC])
    def test_scripts_identical_with_profiling(self, backend, source):
        plain, plain_events, _ = _run(source, backend, trace=True)
        profiled, prof_events, engine = _run(source, backend, trace=True, profile=True)
        assert profiled == plain
        assert [e for e in prof_events if e["ch"] != "profile"] == plain_events
        # The only difference is one trailing summary event.
        extra = [e for e in prof_events if e["ch"] == "profile"]
        assert len(extra) == 1 and extra[0] is prof_events[-1]
        assert extra[0]["event"] == "summary"
        assert extra[0]["attributed_cycles"] == extra[0]["total_cycles"]
        assert extra[0]["total_cycles"] == engine.stats.total_cycles

    @pytest.mark.parametrize(
        "suite_name,bench_name",
        [("sunspider", "access-nsieve"), ("v8", "regexp"),
         ("kraken", "audio-beat-detection")],
        ids=["sunspider", "v8", "kraken"],
    )
    @pytest.mark.parametrize("backend", ["simple", "closure", "whole"])
    def test_benchmarks_identical_with_profiling(self, backend, suite_name, bench_name):
        source = _bench(suite_name, bench_name).source
        plain, plain_events, _ = _run(source, backend, trace=True)
        profiled, prof_events, _ = _run(source, backend, trace=True, profile=True)
        assert profiled == plain
        assert [e for e in prof_events if e["ch"] != "profile"] == plain_events

    def test_summary_event_needs_both_tracer_and_profiler(self):
        _obs, events, _ = _run(HOT_SRC, trace=True)
        assert not [e for e in events if e["ch"] == "profile"]
        _obs, _events, engine = _run(HOT_SRC, profile=True)
        assert engine.tracer is None  # no tracer: summary has nowhere to go

    def test_disabled_profiler_leaves_no_hooks(self):
        _obs, _events, engine = _run(HOT_SRC)
        assert engine.cycle_profiler is None
        assert engine.interpreter.cycle_profiler is None
        assert engine.executor.cycle_profiler is None


class TestAttribution:
    """The (function, tier, block) rows carry the right structure."""

    def test_tiers_and_blocks(self):
        _obs, _events, engine = _run(HOT_SRC, profile=True)
        rows = engine.cycle_profiler.attribution()
        tiers = {row["tier"] for row in rows}
        assert tiers <= set(TIERS)
        assert {"interp", "native", "compile"} <= tiers
        native_rows = [row for row in rows if row["tier"] == "native"]
        assert any(row["block"] == ENTRY_BLOCK for row in native_rows)
        assert any(isinstance(row["block"], int) for row in native_rows)
        square_rows = [row for row in native_rows if row["fn"] == "square"]
        assert square_rows
        for row in square_rows:
            assert row["generation"] == 1
        # Interpreter rows attribute per function, not per block.
        for row in rows:
            if row["tier"] != "native":
                assert row["block"] is None

    def test_per_instruction_counts_match_across_backends(self):
        profiles = {}
        for backend in ("simple", "closure"):
            _obs, _events, engine = _run(DEOPT_SRC, backend, profile=True)
            profiles[backend] = {
                (record.code_id, record.generation): record
                for record in engine.cycle_profiler.binaries
            }
        assert set(profiles["simple"]) == set(profiles["closure"])
        for key, reference in profiles["simple"].items():
            closure = profiles["closure"][key]
            assert closure.resolved_counts() == reference.resolved_counts(), key
            assert closure.forensics == reference.forensics, key
            assert closure.entry_count == reference.entry_count, key
            assert closure.entry_cycles == reference.entry_cycles, key

    def test_function_totals_self_and_inclusive(self):
        _obs, _events, engine = _run(HOT_SRC, profile=True)
        profiler = engine.cycle_profiler
        totals = profiler.function_totals()
        attributed = profiler.attributed_cycles()
        for entry in totals.values():
            assert entry["inclusive_cycles"] >= entry["self_cycles"] >= 0
            assert entry["self_cycles"] == sum(entry["tiers"].values())
        # The toplevel script's inclusive time covers everything below it.
        toplevel = max(
            (e for e in totals.values() if e["code_id"] is not None),
            key=lambda e: e["inclusive_cycles"],
        )
        assert toplevel["inclusive_cycles"] == attributed - totals[None]["self_cycles"]

    def test_recursion_counts_once_per_stack(self):
        source = """
        function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
        print(fib(12));
        """
        _obs, _events, engine = _run(source, profile=True)
        profiler = engine.cycle_profiler
        _assert_exact(profiler, engine.stats)
        totals = profiler.function_totals()
        fib = next(e for e in totals.values() if e["name"] == "fib")
        # Nested fib frames must not double-count: inclusive stays
        # bounded by everything the engine attributed at all.
        assert fib["self_cycles"] <= fib["inclusive_cycles"]
        assert fib["inclusive_cycles"] <= profiler.attributed_cycles()

    def test_block_bodies_partition_the_binary(self):
        _obs, _events, engine = _run(HOT_SRC, profile=True)
        record = engine.cycle_profiler.binaries[0]
        bodies = block_bodies(record.native)
        covered = sorted(index for body in bodies.values() for index in body)
        assert covered == list(range(record.native.size))
        for leader, body in bodies.items():
            assert body[0] == leader


class TestGuardForensics:
    """The forensics table matches the bailout.guard event stream."""

    @pytest.mark.parametrize("backend", ["simple", "closure", "whole"])
    def test_forensics_match_trace_events(self, backend):
        _obs, events, engine = _run(DEOPT_SRC, backend, trace=True, profile=True)
        profiler = engine.cycle_profiler
        guard_events = [e for e in events if e["ch"] == "bailout"]
        assert guard_events, "DEOPT_SRC must produce at least one bailout"
        assert profiler.guard_failures() == len(guard_events)
        assert profiler.guard_failures() == engine.stats.bailouts
        by_index = {}
        for event in guard_events:
            index = event["native_index"] if event["native_index"] is not None else -1
            by_index[index] = by_index.get(index, 0) + 1
        recorded = {}
        for record in profiler.binaries:
            for index, entry in record.forensics.items():
                recorded[index] = recorded.get(index, 0) + entry["count"]
                assert entry["guard_op"] == next(
                    e["guard_op"] for e in guard_events
                    if (e["native_index"] if e["native_index"] is not None else -1)
                    == index
                )
        assert recorded == by_index

    def test_forensics_entry_fields(self):
        _obs, _events, engine = _run(DEOPT_SRC, profile=True)
        failures = [
            entry
            for record in engine.cycle_profiler.binaries
            for entry in record.forensics.values()
        ]
        assert failures
        for entry in failures:
            assert set(entry) == {
                "native_index", "guard_op", "reason",
                "resume_pc", "resume_mode", "resume_point", "count",
            }
            assert entry["resume_mode"] in ("at", "after")
            assert entry["count"] >= 1


class TestCollapsedStacks:
    """Flamegraph export round-trips and sums exactly."""

    @pytest.mark.parametrize("source", [HOT_SRC, DEOPT_SRC])
    def test_round_trip_sums_to_total(self, source):
        _obs, _events, engine = _run(source, profile=True)
        text = to_collapsed(engine.cycle_profiler)
        stacks = parse_collapsed(text)
        assert stacks
        assert sum(count for _frames, count in stacks) == engine.stats.total_cycles
        for frames, count in stacks:
            assert count > 0
            leaf = frames[-1]
            assert leaf.startswith("[") and leaf.strip("[]") in TIERS

    def test_write_collapsed(self, tmp_path):
        _obs, _events, engine = _run(HOT_SRC, profile=True)
        path = tmp_path / "stacks.folded"
        write_collapsed(engine.cycle_profiler, str(path))
        stacks = parse_collapsed(path.read_text())
        assert sum(count for _frames, count in stacks) == engine.stats.total_cycles

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_collapsed("justoneword\n")
        with pytest.raises(ValueError):
            parse_collapsed("a;b notanumber\n")


class TestReports:
    """Hot-function table, annotated disassembly, JSON bundle."""

    def test_function_table(self):
        _obs, _events, engine = _run(HOT_SRC, profile=True)
        text = format_function_table(engine.cycle_profiler, engine.stats.total_cycles)
        assert "function" in text and "self%" in text and "inclusive" in text
        assert "square" in text
        rows = function_table_rows(engine.cycle_profiler)
        assert rows == sorted(rows, key=lambda e: -e["self_cycles"])

    def test_function_table_top_truncates(self):
        _obs, _events, engine = _run(DEOPT_SRC, profile=True)
        text = format_function_table(engine.cycle_profiler, top=1)
        assert "... " in text and " more" in text

    def test_annotate_specialized_function(self):
        _obs, _events, engine = _run(DEOPT_SRC, profile=True)
        text = annotate_function(engine.cycle_profiler, "scale")
        assert "binary 1/2" in text and "binary 2/2" in text
        assert "specialized" in text and "generic" in text
        assert ";; specialized on: [2, 3]" in text
        assert "-- guard forensics --" in text
        # Per-instruction rows carry real execution counts in both
        # binaries: split on the section headers and require each
        # binary to show at least one instruction with count > 0.
        for section in text.split("== scale")[1:]:
            counts = [
                int(match.group(3))
                for match in re.finditer(
                    r"^(=>|  ) +(\d+) +(\d+) +(\d+)", section, re.MULTILINE
                )
            ]
            assert counts and any(count > 0 for count in counts)

    def test_annotate_marks_osr_entry(self):
        _obs, _events, engine = _run(OSR_SRC, profile=True)
        text = annotate_function(engine.cycle_profiler, "f")
        assert re.search(r"^=> +\d+", text, re.MULTILINE)

    def test_annotate_unknown_function(self):
        _obs, _events, engine = _run(HOT_SRC, profile=True)
        with pytest.raises(ValueError) as info:
            annotate_function(engine.cycle_profiler, "nope")
        assert "square" in str(info.value)

    def test_profile_as_dict_is_json_safe(self):
        _obs, _events, engine = _run(DEOPT_SRC, profile=True)
        bundle = profile_as_dict(engine.cycle_profiler, engine.stats)
        encoded = json.loads(json.dumps(bundle))
        assert encoded["summary"]["attributed_cycles"] == engine.stats.total_cycles
        assert encoded["stats"]["total_cycles"] == engine.stats.total_cycles
        assert encoded["guard_forensics"]
        assert sum(row["cycles"] for row in encoded["attribution"]) == (
            engine.stats.total_cycles
        )


class TestHarness:
    """run_benchmark(profile=True) plumbs the profiler through."""

    def test_run_benchmark_profile(self):
        run = run_benchmark(
            _bench("sunspider", "bitops-bits-in-byte"), FULL_SPEC,
            engine_kwargs=dict(FAST5), profile=True,
        )
        assert run.profile is not None
        assert run.profile.attributed_cycles() == run.summary["total_cycles"]

    def test_run_benchmark_default_has_no_profile(self):
        run = run_benchmark(
            _bench("sunspider", "bitops-bits-in-byte"), FULL_SPEC,
            engine_kwargs=dict(FAST5),
        )
        assert run.profile is None
