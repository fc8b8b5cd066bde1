"""Tests for the figure/table harness itself."""

import pytest

from repro.bench.harness import (
    arithmetic_mean,
    format_figure9,
    geometric_mean_percent,
    run_benchmark,
    run_suite_sweep,
    speedup_rows,
)
from repro.engine.config import BASELINE, FULL_SPEC, OptConfig
from repro.workloads import Benchmark

TINY = [
    Benchmark(
        "tiny-kernel",
        """
        function kernel(a, n) {
          var s = 0;
          for (var i = 0; i < n; i++) s += (a * i) & 255;
          return s;
        }
        var t = 0;
        for (var r = 0; r < 30; r++) t += kernel(7, 40);
        print(t);
        """,
    ),
    Benchmark(
        "tiny-strings",
        """
        function shout(s) { return s.toUpperCase() + "!"; }
        var out = "";
        for (var r = 0; r < 30; r++) out = shout("hello");
        print(out);
        """,
    ),
]

CONFIGS = [OptConfig("PS", param_spec=True), FULL_SPEC]


@pytest.fixture(scope="module")
def sweep():
    return run_suite_sweep("tiny", TINY, configs=CONFIGS, engine_kwargs={"hot_call_threshold": 3})


class TestRunBenchmark:
    def test_returns_measurements(self):
        run = run_benchmark(TINY[0], BASELINE, {"hot_call_threshold": 3})
        assert run.total_cycles > 0
        assert run.output and run.output[0].isdigit()
        assert run.config == "baseline"

    def test_compile_cycles_subset_of_total(self):
        run = run_benchmark(TINY[0], BASELINE, {"hot_call_threshold": 3})
        assert 0 < run.compile_cycles < run.total_cycles


class TestSweep:
    def test_all_cells_present(self, sweep):
        assert set(sweep.runs) == {"baseline", "PS", "all"}
        for runs in sweep.runs.values():
            assert set(runs) == {"tiny-kernel", "tiny-strings"}

    def test_outputs_verified(self, sweep):
        base = sweep.run_for("baseline", "tiny-kernel").output
        assert sweep.run_for("all", "tiny-kernel").output == base

    def test_verification_catches_mismatch(self, monkeypatch):
        from repro.bench import harness

        real_job = harness._run_benchmark_job

        def skewed_job(job):
            run = real_job(job)
            if run.config != "baseline":
                run.output = run.output + ["extra"]
            return run

        monkeypatch.setattr(harness, "_run_benchmark_job", skewed_job)
        with pytest.raises(AssertionError, match="baseline printed"):
            run_suite_sweep("x", [Benchmark("ok", "print(1);")], configs=CONFIGS)

    def test_speedup_rows(self, sweep):
        rows = speedup_rows(sweep, CONFIGS)
        assert set(rows) == {"PS", "all"}
        for arith, geo, detail in rows.values():
            assert len(detail) == 2
            assert isinstance(arith, float)

    def test_format_figure9(self, sweep):
        table = format_figure9([sweep], CONFIGS)
        assert "arithmetic mean" in table
        assert "geometric mean" in table
        assert "tiny" in table


class TestParallelSweep:
    """``--jobs N``: worker processes change wall-clock time only."""

    def test_parallel_matches_serial(self, sweep):
        parallel = run_suite_sweep(
            "tiny",
            TINY,
            configs=CONFIGS,
            engine_kwargs={"hot_call_threshold": 3},
            jobs=2,
        )
        assert parallel.benchmarks() == sweep.benchmarks()
        assert set(parallel.runs) == set(sweep.runs)
        for config_name in sweep.runs:
            for bench_name in sweep.runs[config_name]:
                serial_run = sweep.run_for(config_name, bench_name)
                parallel_run = parallel.run_for(config_name, bench_name)
                assert parallel_run.output == serial_run.output
                assert parallel_run.total_cycles == serial_run.total_cycles
                assert parallel_run.compile_cycles == serial_run.compile_cycles

class TestMeans:
    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert arithmetic_mean([]) == 0.0

    def test_geometric_mean_identity(self):
        assert abs(geometric_mean_percent([10.0, 10.0]) - 10.0) < 1e-9

    def test_geometric_between_extremes(self):
        values = [5.0, 40.0]
        result = geometric_mean_percent(values)
        assert min(values) < result < max(values)

    def test_geometric_handles_negative(self):
        result = geometric_mean_percent([-10.0, 10.0])
        assert -10.0 < result < 10.0

    def test_empty(self):
        assert geometric_mean_percent([]) == 0.0
