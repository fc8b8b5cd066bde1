"""Benchmark harness: regenerates every table and figure of the paper.

:mod:`repro.bench.harness` runs suites under optimization
configurations and aggregates the Figure 9 tables;
:mod:`repro.bench.figures` regenerates the Section 2 histograms and the
Figure 10 code-size study; :mod:`repro.bench.cycles` measures the
deterministic cycle sections ``BENCH_cycles.json`` holds and
:mod:`repro.bench.compare` gates a run against that file (``python -m
repro bench --compare``).  Host seconds are ``hostbench/``'s alone.
The runnable entry points live in the repository's ``benchmarks/``
directory.
"""

from repro.bench.harness import (
    BenchmarkRun,
    SweepResult,
    run_benchmark,
    run_suite_sweep,
    speedup_rows,
    format_figure9,
)
from repro.bench.figures import (
    web_histograms,
    suite_histograms,
    parameter_types,
    code_size_study,
    policy_stats,
    recompilation_stats,
)

__all__ = [
    "BenchmarkRun",
    "SweepResult",
    "run_benchmark",
    "run_suite_sweep",
    "speedup_rows",
    "format_figure9",
    "web_histograms",
    "suite_histograms",
    "parameter_types",
    "code_size_study",
    "policy_stats",
    "recompilation_stats",
]
