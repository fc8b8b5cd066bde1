"""Tests for the workload suites and the synthetic web corpus."""

import pytest

from repro.jsvm.interpreter import Interpreter
from repro.telemetry.histograms import CallProfiler
from repro.workloads import ALL_SUITES, Benchmark, suite
from repro.workloads.web import (
    WEBSITES,
    WebCorpusConfig,
    generate_web_trace,
    generate_website_program,
)

ALL_BENCHMARKS = [
    (suite_name, benchmark)
    for suite_name, benchmarks in sorted(ALL_SUITES.items())
    for benchmark in benchmarks
]


class TestSuiteStructure:
    def test_suite_lookup(self):
        assert suite("sunspider") is ALL_SUITES["sunspider"]
        with pytest.raises(KeyError):
            suite("octane")

    def test_suites_nonempty(self):
        # The three paper suites are substantial; the object/shape
        # suite (docs/SHAPES.md) and the precondition-churn suite
        # (docs/DEOPTLESS.md) are focused three-kernel sets.
        for name, benchmarks in ALL_SUITES.items():
            assert len(benchmarks) >= (3 if name in ("objects", "churn") else 6)

    def test_unique_names(self):
        for benchmarks in ALL_SUITES.values():
            names = [b.name for b in benchmarks]
            assert len(names) == len(set(names))

    def test_benchmark_repr(self):
        assert "bitops" in repr(ALL_SUITES["sunspider"][0])


@pytest.mark.parametrize(
    "suite_name,bench",
    ALL_BENCHMARKS,
    ids=["%s/%s" % (s, b.name) for s, b in ALL_BENCHMARKS],
)
class TestBenchmarkPrograms:
    def test_parses_and_prints_one_line(self, suite_name, bench):
        # Each program runs on the bare interpreter and prints exactly
        # one line (determinism across tiers is covered by the bench
        # harness's output verification).
        output = Interpreter().run_source(bench.source)
        assert len(output) == 1
        assert output[0] != ""


class TestWebCorpus:
    def test_seeded_reproducibility(self):
        a, b = CallProfiler(), CallProfiler()
        generate_web_trace(a, WebCorpusConfig(num_functions=300))
        generate_web_trace(b, WebCorpusConfig(num_functions=300))
        assert a.call_count_histogram() == b.call_count_histogram()
        assert a.argument_set_histogram() == b.argument_set_histogram()

    def test_different_seed_differs(self):
        a, b = CallProfiler(), CallProfiler()
        generate_web_trace(a, WebCorpusConfig(num_functions=300, seed=1))
        generate_web_trace(b, WebCorpusConfig(num_functions=300, seed=2))
        assert a.call_count_histogram() != b.call_count_histogram()

    def test_population_size(self):
        profiler = CallProfiler()
        generate_web_trace(profiler, WebCorpusConfig(num_functions=500))
        assert profiler.num_functions == 500

    def test_paper_fractions(self):
        profiler = CallProfiler()
        generate_web_trace(profiler, WebCorpusConfig(num_functions=2300))
        assert abs(profiler.fraction_called_once() - 0.4888) < 0.05
        assert abs(profiler.fraction_single_argument_set() - 0.5991) < 0.05

    def test_argument_sets_bounded_by_calls(self):
        profiler = CallProfiler()
        generate_web_trace(profiler, WebCorpusConfig(num_functions=400))
        for profile in profiler.profiles.values():
            assert 1 <= profile.distinct_argument_sets <= profile.call_count

    def test_type_mix_is_web_like(self):
        profiler = CallProfiler()
        generate_web_trace(profiler, WebCorpusConfig(num_functions=2300))
        dist = profiler.parameter_type_distribution()
        assert dist["object"] > dist["int"]
        assert dist["string"] > dist["int"]


class TestWebsitePrograms:
    def test_generates_runnable_source(self):
        for site, functions, poly in WEBSITES:
            source = generate_website_program(site, functions, poly)
            output = Interpreter().run_source(source)
            assert len(output) == 1

    def test_deterministic_per_site(self):
        source_a = generate_website_program("www.example.com", 20, 0.1)
        source_b = generate_website_program("www.example.com", 20, 0.1)
        assert source_a == source_b

    def test_default_seed_does_not_depend_on_the_hash_seed(self):
        """``hash(str)`` is salted per process; the default seed must not be."""
        import hashlib
        import os
        import subprocess
        import sys

        script = (
            "import hashlib\n"
            "from repro.workloads.web import WEBSITES, generate_website_program\n"
            "for site, functions, poly in WEBSITES:\n"
            "    page = generate_website_program(site, functions, poly)\n"
            "    print(site, hashlib.sha256(page.encode('utf-8')).hexdigest())\n"
        )
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env,
                    check=True,
                    capture_output=True,
                    text=True,
                    timeout=60,
                ).stdout
            )
        assert outputs[0] == outputs[1]
        here = "".join(
            "%s %s\n"
            % (
                site,
                hashlib.sha256(
                    generate_website_program(site, functions, poly).encode("utf-8")
                ).hexdigest(),
            )
            for site, functions, poly in WEBSITES
        )
        assert outputs[0] == here

    def test_output_stable_across_engines(self):
        from repro import BASELINE, FULL_SPEC, Engine

        source = generate_website_program("www.example.com", 25, 0.2)
        expected = Interpreter().run_source(source)
        for config in (BASELINE, FULL_SPEC):
            engine = Engine(config=config, hot_call_threshold=5)
            assert engine.run_source(source) == expected
