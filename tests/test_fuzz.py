"""Tests for the differential fuzzing & chaos-deopt subsystem.

Four layers, mirroring ``src/repro/fuzz/``: the seeded generator, the
guard fault injector ("chaos deopt"), the differential oracle plus the
ddmin shrinker, and the fuzz session / CLI / corpus plumbing.  The
planted-miscompile test is the subsystem's end-to-end proof: a
deliberately corrupted binary must be caught by the oracle and reduced
to a ≤10-line reproducer.

The chaos coverage tests assert the injector's central invariant via
profiler guard forensics: in a full-chaos run every *executed* guard
of every binary is force-failed exactly once (fired set == guards with
a positive resolved execution count), the recorded failure reason is
``fault-injected``, and output stays bit-identical to an uninjected
run.  A guard that never executes (an entry-path guard of a
function whose only call OSR-entered the loop) has no execution to
hijack, so "all guards of every binary" is not attainable in general —
but small, repeatedly-called functions do reach it, and the
representative per-suite benchmarks below each produce at least one
*fully* fired binary.  The whole-suite sweep runs nightly
(``pytest -m nightly``), not in tier-1.
"""

import io
import os

import pytest

from repro.engine import jit
from repro.engine.bailout import GuardFaultInjector
from repro.engine.config import FULL_SPEC
from repro.engine.runtime_engine import Engine
from repro.errors import JSSyntaxError
from repro.fuzz import (
    DEFAULT_MATRIX,
    VARIANT_NAMES,
    FuzzSession,
    check_program,
    generate_program,
    shrink_program,
)
from repro.fuzz.corpus import corpus_files, replay_corpus
from repro.fuzz.oracle import CHAOS_BAILOUT_LIMIT, resolve_matrix
from repro.fuzz.shrink import ddmin
from repro.jsvm.bytecompiler import compile_source
from repro.lir.native import FAULT_INJECTED
from repro.telemetry.profiler import CycleProfiler
from repro.telemetry.tracing import Tracer
from repro.tools.cli import main as cli_main
from repro.workloads import ALL_SUITES

from tests.conftest import FAST

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: A small hot function: compiles, OSR-compiles, and respecializes,
#: giving the injector several binaries' worth of guards to force.
HOT_SOURCE = """\
function hot(a, b) { var s = 0; for (var i = 0; i < 30; i = i + 1) { s = s + a * b; } return s; }
print(hot(3, 4));
print(hot(3, 4));
print(hot(3, 4));
print(hot(5, 6));
"""

#: Deliberately bloated program for the planted-miscompile test: the
#: filler lines are what the shrinker must strip away.
MISCOMPILE_SOURCE = """\
function hot(a, b) { var s = 0; for (var i = 0; i < 40; i = i + 1) { s = s + a + b; } return s; }
var x = 1;
var y = 2;
print(hot(3, 4));
print(hot(x, y));
var unused = "filler";
print(hot(5, 6));
var z = x + y;
print(z);
print(hot(7, 8));
"""


def plant_miscompile(monkeypatch):
    """Miscompile every fresh binary: its first addition becomes a
    subtraction (the accumulator add — stream order puts it before the
    loop-counter increment, so the loop still terminates)."""
    generate_native = jit.generate_native

    def miscompiled(graph):
        native, codegen_stats = generate_native(graph)
        for instruction in native.instructions:
            if instruction.op == "add_i":
                instruction.op = "sub_i"
                break
        return native, codegen_stats

    monkeypatch.setattr(jit, "generate_native", miscompiled)


# ---------------------------------------------------------------------------
# Generator


class TestGenerator:
    def test_deterministic_per_seed_and_iteration(self):
        for seed, iteration in [(0, 0), (0, 7), (3, 0), (12345, 99)]:
            assert generate_program(seed, iteration) == generate_program(
                seed, iteration
            )

    def test_distinct_iterations_vary(self):
        programs = {generate_program(0, iteration) for iteration in range(10)}
        assert len(programs) >= 8

    def test_distinct_seeds_vary(self):
        programs = {generate_program(seed, 0) for seed in range(10)}
        assert len(programs) >= 8

    def test_every_program_compiles(self):
        # 12 of these 1,000 used to render a negative literal under the
        # unary-minus arm as ``(--0.25)``: "invalid update target".
        for seed in range(40):
            for iteration in range(25):
                compile_source(generate_program(seed, iteration))

    def test_single_line_constructs_for_ddmin(self):
        # The shrinker removes whole lines, so every top-level
        # construct must be one line: each non-blank line is either a
        # complete function definition or a statement ending in ';'.
        for iteration in range(10):
            for line in generate_program(0, iteration).splitlines():
                if not line.strip():
                    continue
                assert line.startswith("function ") or line.rstrip().endswith(
                    ";"
                ), line

    def _sweep(self, pattern, seeds=6, iterations=40):
        """Programs from a seed sweep whose text contains ``pattern``."""
        return [
            generate_program(seed, iteration)
            for seed in range(seeds)
            for iteration in range(iterations)
            if pattern in generate_program(seed, iteration)
        ]

    def test_speckey_arm_overflows_and_revisits_the_key_space(self):
        # The spec-key arm exists in the sweep, drives more distinct
        # literal pairs than the spec-cache capacity, and re-hits each
        # pair in later rounds (the z.../y-prefix round labels).
        hits = self._sweep("function k0(v, w)")
        assert hits
        for program in hits[:5]:
            calls = [line for line in program.splitlines() if "k0(" in line and "var z" in line]
            pairs = set()
            for line in calls:
                inner = line[line.index("k0(") + 3 :]
                pairs.add(inner[: inner.index(")")])
            # More distinct keys than the paper's spec-cache capacity
            # (1) and the deoptless table (4) in at least one program.
            assert len(pairs) >= 3
            # Rounds revisit the same pairs: total call lines exceed
            # the distinct pair count.
            assert len(calls) >= 2 * len(pairs)

    def test_array_arm_reads_modulo_length_and_may_grow(self):
        hits = self._sweep("function b0(a, n)")
        assert hits
        assert any(".length] =" in program for program in hits)
        for program in hits[:5]:
            assert "a[i % a.length]" in program
            assert "var ar0_0 = [" in program

    def test_closure_arm_builds_sibling_instances(self):
        hits = self._sweep("function m0(n)")
        assert hits
        for program in hits[:5]:
            assert "return function (d)" in program
            assert "var cl0_0 = m0(" in program
            assert "var cl0_1 = m0(" in program
            # The hot driver interleaves both instances.
            assert "cl0_0(x0) + cl0_1(x0)" in program


# ---------------------------------------------------------------------------
# Guard fault injector ("chaos deopt")


def run_chaos(source, **engine_kwargs):
    """Run ``source`` normally and under full chaos; returns
    (expected, got, injector, profiler)."""
    expect = Engine(config=FULL_SPEC, **dict(FAST, **engine_kwargs)).run_source(
        source
    )
    injector = GuardFaultInjector()
    profiler = CycleProfiler()
    engine = Engine(
        config=FULL_SPEC,
        bailout_limit=CHAOS_BAILOUT_LIMIT,
        fault_injector=injector,
        cycle_profiler=profiler,
        **dict(FAST, **engine_kwargs)
    )
    got = engine.run_source(source)
    return expect, got, injector, profiler


def assert_chaos_invariants(expect, got, injector, profiler):
    """The chaos contract: identical output, every executed guard
    forced exactly once, forensics blaming ``fault-injected``."""
    assert got == expect
    assert injector.fired, "chaos run forced no guards at all"

    # A record holds a twin of its binary, not the binary (holding a
    # profiler must not hold a finished engine): look records up.
    known = len(profiler.binaries)
    for native, fired, guards in injector.coverage():
        record = profiler.native_profile(native)
        assert len(profiler.binaries) == known, "injector saw a binary the profiler missed"
        counts = record.resolved_counts()
        executed = frozenset(index for index in guards if counts[index] > 0)
        assert fired == executed, (
            "binary %s: fired %s != executed guards %s"
            % (record.name, sorted(fired), sorted(executed))
        )
        for index in fired:
            entry = record.forensics.get(index)
            assert entry is not None, "no forensics for forced guard %d" % index
            assert entry["reason"] == FAULT_INJECTED


class TestGuardFaultInjector:
    @pytest.mark.parametrize("backend", ["simple", "closure"])
    def test_full_chaos_output_identical(self, backend):
        expect, got, injector, profiler = run_chaos(
            HOT_SOURCE, executor_backend=backend
        )
        assert_chaos_invariants(expect, got, injector, profiler)

    def test_hot_function_binary_fully_fired(self):
        _expect, _got, injector, _profiler = run_chaos(HOT_SOURCE)
        full = injector.fully_fired_binaries()
        assert any(native.code.name == "hot" for native in full)

    def test_function_selector_limits_targets(self):
        injector = GuardFaultInjector(function="hot")
        engine = Engine(
            config=FULL_SPEC,
            bailout_limit=CHAOS_BAILOUT_LIMIT,
            fault_injector=injector,
            **FAST
        )
        engine.run_source(HOT_SOURCE)
        assert injector.fired
        assert {record["fn"] for record in injector.fired} == {"hot"}

    def test_unknown_function_selector_fires_nothing(self):
        injector = GuardFaultInjector(function="nonexistent")
        engine = Engine(
            config=FULL_SPEC,
            bailout_limit=CHAOS_BAILOUT_LIMIT,
            fault_injector=injector,
            **FAST
        )
        printed = engine.run_source(HOT_SOURCE)
        assert injector.fired == []
        assert printed == Engine(config=FULL_SPEC, **FAST).run_source(HOT_SOURCE)

    def test_nth_selector_fires_only_that_guard(self):
        injector = GuardFaultInjector(nth=0)
        engine = Engine(
            config=FULL_SPEC,
            bailout_limit=CHAOS_BAILOUT_LIMIT,
            fault_injector=injector,
            **FAST
        )
        engine.run_source(HOT_SOURCE)
        assert injector.fired
        for _native, fired, guards in injector.coverage():
            assert fired <= {guards[0]}

    def test_forced_bailouts_emit_inject_events(self):
        tracer = Tracer(channels=("fuzz",))
        injector = GuardFaultInjector()
        engine = Engine(
            config=FULL_SPEC,
            tracer=tracer,
            bailout_limit=CHAOS_BAILOUT_LIMIT,
            fault_injector=injector,
            **FAST
        )
        engine.run_source(HOT_SOURCE)
        injects = [event for event in tracer.events if event["event"] == "inject"]
        assert len(injects) == len(injector.fired)
        for event, record in zip(injects, injector.fired):
            assert event["fn"] == record["fn"]
            assert event["native_index"] == record["native_index"]
            assert event["guard_op"] == record["guard_op"]


#: One representative benchmark per suite, chosen fast *and* known to
#: drive at least one binary to full guard coverage under chaos.
CHAOS_BENCHMARKS = [
    ("sunspider", "bitops-bits-in-byte"),
    ("v8", "crypto"),
    ("kraken", "imaging-desaturate"),
]


def suite_bench(suite_name, bench_name):
    for bench in ALL_SUITES[suite_name]:
        if bench.name == bench_name:
            return bench
    raise KeyError(bench_name)


class TestChaosBenchmarkCoverage:
    @pytest.mark.parametrize("suite_name,bench_name", CHAOS_BENCHMARKS)
    def test_chaos_fires_every_executed_guard(self, suite_name, bench_name):
        bench = suite_bench(suite_name, bench_name)
        expect, got, injector, profiler = run_chaos(bench.source)
        assert_chaos_invariants(expect, got, injector, profiler)
        assert len(injector.fully_fired_binaries()) >= 1, (
            "%s/%s: no binary had every guard forced" % (suite_name, bench_name)
        )


ALL_BENCHMARKS = [
    (suite_name, bench.name)
    for suite_name, suite in ALL_SUITES.items()
    for bench in suite
]


def _nightly_shard(benchmarks):
    """Filter the sweep to this CI shard (``REPRO_NIGHTLY_SHARD=k/n``).

    The nightly chaos sweep covers every benchmark — tens of minutes
    in one process — so CI shards it across a job matrix: shard ``k``
    of ``n`` takes the benchmarks whose index is congruent to ``k``
    modulo ``n``, a deterministic partition that stays balanced as
    suites grow and covers every benchmark exactly once across the
    matrix.  Unset (local runs), the whole list is kept.
    """
    spec = os.environ.get("REPRO_NIGHTLY_SHARD")
    if not spec:
        return benchmarks
    shard, _, count = spec.partition("/")
    shard, count = int(shard), int(count)
    return [
        item for index, item in enumerate(benchmarks) if index % count == shard
    ]


@pytest.mark.nightly
class TestChaosFullSweep:
    """Exhaustive chaos sweep over every benchmark (nightly CI only,
    shardable via ``REPRO_NIGHTLY_SHARD``)."""

    @pytest.mark.parametrize("suite_name,bench_name", _nightly_shard(ALL_BENCHMARKS))
    def test_chaos_run_matches_plain_run(self, suite_name, bench_name):
        bench = suite_bench(suite_name, bench_name)
        expect, got, injector, profiler = run_chaos(bench.source)
        assert_chaos_invariants(expect, got, injector, profiler)


# ---------------------------------------------------------------------------
# Differential oracle


class TestResolveMatrix:
    def test_none_is_full_matrix(self):
        assert resolve_matrix(None) == DEFAULT_MATRIX
        assert set(DEFAULT_MATRIX) == set(VARIANT_NAMES)

    def test_interp_always_included(self):
        assert resolve_matrix(["jit"]) == ("interp", "jit")

    def test_canonical_execution_order(self):
        assert resolve_matrix(["chaos", "jit", "interp"]) == (
            "interp",
            "jit",
            "chaos",
        )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz variants"):
            resolve_matrix(["warpdrive"])

    def test_cache_warm_requires_cache_cold(self):
        with pytest.raises(ValueError, match="cache-warm requires cache-cold"):
            resolve_matrix(["cache-warm"])
        assert resolve_matrix(["cache-cold", "cache-warm"]) == (
            "interp",
            "cache-cold",
            "cache-warm",
        )


class TestOracle:
    def test_agreeing_program_has_no_mismatches(self):
        assert check_program(HOT_SOURCE) == []

    def test_guest_error_must_match_everywhere(self):
        source = 'function f(a) { return a.missing(); }\nprint("pre");\nprint(f(1));\n'
        assert check_program(source, ["jit"]) == []

    def test_generated_programs_agree_across_full_matrix(self):
        for iteration in range(12):
            source = generate_program(1, iteration)
            mismatches = check_program(source)
            assert mismatches == [], (
                "seed 1 iteration %d: %r\n%s" % (iteration, mismatches, source)
            )


# ---------------------------------------------------------------------------
# Shrinker


class TestShrinker:
    def test_ddmin_finds_minimal_subset(self):
        lines = list("abcdefgh")

        def predicate(candidate):
            return "c" in candidate and "f" in candidate

        minimal, steps = ddmin(lines, predicate)
        assert sorted(minimal) == ["c", "f"]
        assert steps > 0

    def test_shrink_program_reports_sizes(self):
        source = "\n".join("line%d;" % index for index in range(8)) + "\n"

        def predicate(candidate):
            return "line3;" in candidate

        result = shrink_program(source, predicate)
        assert result.source == "line3;\n"
        assert result.from_lines == 8
        assert result.to_lines == 1
        assert result.steps > 0


class TestPlantedMiscompile:
    """End-to-end acceptance: a deliberate miscompile is caught by the
    oracle and shrunk to a ≤10-line reproducer."""

    def test_oracle_catches_and_shrinker_reduces(self, monkeypatch):
        plant_miscompile(monkeypatch)
        mismatches = check_program(MISCOMPILE_SOURCE, ["jit"])
        assert any(
            mismatch.kind == "output" and mismatch.variant == "jit"
            for mismatch in mismatches
        ), mismatches

        def predicate(candidate):
            try:
                found = check_program(candidate, ["jit"])
            except JSSyntaxError:
                return False
            return any(mismatch.kind == "output" for mismatch in found)

        result = shrink_program(MISCOMPILE_SOURCE, predicate)
        assert result.to_lines <= 10
        assert result.to_lines < result.from_lines
        # The reduced program still witnesses the miscompile ...
        assert predicate(result.source)
        monkeypatch.undo()
        # ... and is clean once the corruption is gone.
        assert check_program(MISCOMPILE_SOURCE, ["jit"]) == []


# ---------------------------------------------------------------------------
# Session, corpus, CLI


class TestFuzzSession:
    def test_clean_campaign_emits_run_events(self):
        tracer = Tracer(channels=("fuzz",))
        session = FuzzSession(
            seed=0, iterations=2, matrix=["jit"], tracer=tracer
        )
        summary = session.run()
        assert summary["failures"] == 0
        assert summary["reproducers"] == []
        assert summary["variants"] == ["interp", "jit"]
        runs = [event for event in tracer.events if event["event"] == "run"]
        assert len(runs) == 2
        assert runs[0]["seed"] == 0 and runs[0]["iteration"] == 0

    def test_mismatch_is_shrunk_and_banked(self, tmp_path, monkeypatch):
        from repro.fuzz import harness

        monkeypatch.setattr(
            harness,
            "generate_program",
            lambda seed, iteration: MISCOMPILE_SOURCE,
        )
        plant_miscompile(monkeypatch)
        tracer = Tracer(channels=("fuzz",))
        log_lines = []
        session = FuzzSession(
            seed=9,
            iterations=1,
            matrix=["jit"],
            corpus_dir=str(tmp_path),
            tracer=tracer,
            log=log_lines.append,
        )
        summary = session.run()
        assert summary["failures"] == 1
        (path,) = summary["reproducers"]
        text = open(path).read()
        assert text.startswith("// fuzz reproducer: seed=9 iteration=0")
        body = [
            line
            for line in text.splitlines()
            if line.strip() and not line.startswith("//")
        ]
        assert len(body) <= 10

        events = {event["event"] for event in tracer.events}
        assert {"mismatch", "shrink"} <= events
        assert any("shrunk" in line for line in log_lines)

    def test_unparseable_program_is_a_generator_failure(self, tmp_path, monkeypatch):
        # Every variant raises the same JSSyntaxError, which the oracle
        # alone reads as agreement.
        from repro.fuzz import harness

        monkeypatch.setattr(
            harness, "generate_program", lambda seed, iteration: "print((--0.25));\n"
        )
        tracer = Tracer(channels=("fuzz",))
        session = FuzzSession(
            seed=3, iterations=1, matrix=["jit"], corpus_dir=str(tmp_path), tracer=tracer
        )
        summary = session.run()
        assert summary["failures"] == 1
        (record,) = session.failures
        assert record["kind"] == "generator"
        assert "invalid update target" in record["detail"]
        assert record["source"] == "print((--0.25));\n"
        assert [event["event"] for event in tracer.events] == ["mismatch"]
        code, output = run_cli(["fuzz", "--seed", "3", "--iterations", "1", "--matrix", "jit"])
        assert code == 1
        assert "generator mismatch" in output and "all variants agree" not in output

    def test_shrink_can_be_disabled(self, tmp_path, monkeypatch):
        from repro.fuzz import harness

        monkeypatch.setattr(
            harness,
            "generate_program",
            lambda seed, iteration: MISCOMPILE_SOURCE,
        )
        plant_miscompile(monkeypatch)
        session = FuzzSession(
            seed=9, iterations=1, matrix=["jit"], shrink=False,
            corpus_dir=str(tmp_path),
        )
        summary = session.run()
        assert summary["failures"] == 1
        (record,) = session.failures
        assert record["source"] == MISCOMPILE_SOURCE


class TestCorpusReplay:
    def test_corpus_is_seeded(self):
        assert len(corpus_files(CORPUS_DIR)) >= 10

    def test_corpus_replays_cleanly_through_full_matrix(self):
        results = replay_corpus(CORPUS_DIR)
        assert len(results) >= 10
        failing = {
            name: mismatches
            for name, mismatches in results.items()
            if mismatches
        }
        assert failing == {}


def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


class TestFuzzCLI:
    def test_clean_run_exits_zero(self):
        code, output = run_cli(
            ["fuzz", "--seed", "0", "--iterations", "2", "--matrix", "interp,jit"]
        )
        assert code == 0
        assert "OK: all variants agree" in output

    def test_mismatch_exits_nonzero_and_banks(self, tmp_path, monkeypatch):
        from repro.fuzz import harness

        monkeypatch.setattr(
            harness,
            "generate_program",
            lambda seed, iteration: MISCOMPILE_SOURCE,
        )
        plant_miscompile(monkeypatch)
        code, output = run_cli(
            [
                "fuzz",
                "--iterations",
                "1",
                "--matrix",
                "jit",
                "--corpus-dir",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert "FAIL: 1 mismatching program(s)" in output
        assert list(tmp_path.glob("repro-*.js"))

    def test_jsonl_trace_output(self, tmp_path):
        trace_path = tmp_path / "fuzz.jsonl"
        code, _output = run_cli(
            [
                "fuzz",
                "--iterations",
                "1",
                "--matrix",
                "interp,jit",
                "--jsonl",
                str(trace_path),
            ]
        )
        assert code == 0
        assert '"ch": "fuzz"' in trace_path.read_text() or '"fuzz"' in trace_path.read_text()
