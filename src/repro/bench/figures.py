"""Generators for the paper's non-table figures and §4 studies.

* Figures 1 & 2 — web-corpus call and argument-set histograms;
* Figure 3 — the same histograms measured live on the suites;
* Figure 4 — parameter type distributions;
* Figure 10 — per-function code size, baseline vs specialized;
* §4 policy table — specialized / successful / deoptimized counts;
* §4 recompilations — recompilation growth under specialization.
"""

from repro.engine.config import BASELINE, FULL_SPEC
from repro.engine.runtime_engine import Engine
from repro.jsvm.interpreter import Interpreter
from repro.telemetry.codesize import CodeSizeReport
from repro.telemetry.histograms import CallProfiler
from repro.workloads.web import WebCorpusConfig, generate_web_trace


def web_histograms(config=None):
    """Figures 1, 2, 4 (WEB column): profile a synthetic session.

    Returns the populated :class:`CallProfiler`.
    """
    profiler = CallProfiler()
    generate_web_trace(profiler, config or WebCorpusConfig())
    return profiler


def suite_histograms(suite):
    """Figure 3: run a suite interpreted with a call profiler attached."""
    profiler = CallProfiler()
    for benchmark in suite:
        interpreter = Interpreter(profiler=profiler)
        interpreter.run_source(benchmark.source)
    return profiler


def parameter_types(profiler):
    """Figure 4 rows for one profiled population."""
    return profiler.parameter_type_distribution()


def code_size_study(suite, spec_config=None, engine_kwargs=None):
    """Figure 10 for one suite: returns (CodeSizeReport, runs).

    Runs every benchmark under the baseline and the specialized
    configuration, using the per-function *smallest* binary each mode
    produced (the paper's methodology), merged across the suite.
    """
    spec_config = spec_config or FULL_SPEC
    baseline_sizes = {}
    spec_sizes = {}
    names = {}

    for benchmark in suite:
        base_engine = Engine(config=BASELINE, **(engine_kwargs or {}))
        base_engine.run_source(benchmark.source)
        spec_engine = Engine(config=spec_config, **(engine_kwargs or {}))
        spec_engine.run_source(benchmark.source)
        # code ids restart at 1 in every engine, so match functions by
        # (benchmark, name) instead.
        for cid, size in base_engine.stats.code_sizes.items():
            key = (benchmark.name, base_engine.stats.function_names[cid])
            if key not in baseline_sizes or size < baseline_sizes[key]:
                baseline_sizes[key] = size
            names[key] = "%s:%s" % key
        for cid, size in spec_engine.stats.code_sizes.items():
            key = (benchmark.name, spec_engine.stats.function_names[cid])
            if key not in spec_sizes or size < spec_sizes[key]:
                spec_sizes[key] = size
            names[key] = "%s:%s" % key

    return CodeSizeReport.from_size_maps(baseline_sizes, spec_sizes, names)


def policy_stats(suite, config=None, engine_kwargs=None):
    """§4 specialization policy counts summed over a suite.

    Returns ``(specialized, successful, deoptimized)`` function counts.
    """
    config = config or FULL_SPEC
    specialized = 0
    successful = 0
    deoptimized = 0
    for benchmark in suite:
        engine = Engine(config=config, **(engine_kwargs or {}))
        engine.run_source(benchmark.source)
        specialized += len(engine.stats.specialized_functions)
        successful += len(engine.stats.successfully_specialized)
        deoptimized += len(engine.stats.deoptimized_functions)
    return specialized, successful, deoptimized


def recompilation_stats(suite, config=None, engine_kwargs=None):
    """§4 recompilations: totals under baseline vs specialization.

    Returns ``(baseline_compiles, spec_compiles, growth_percent)``
    where growth measures how many more compilations of the same
    function specialization causes.
    """
    config = config or FULL_SPEC
    baseline_compiles = 0
    spec_compiles = 0
    for benchmark in suite:
        base_engine = Engine(config=BASELINE, **(engine_kwargs or {}))
        base_engine.run_source(benchmark.source)
        spec_engine = Engine(config=config, **(engine_kwargs or {}))
        spec_engine.run_source(benchmark.source)
        baseline_compiles += base_engine.stats.compiles
        spec_compiles += spec_engine.stats.compiles
    growth = (
        100.0 * (spec_compiles - baseline_compiles) / baseline_compiles
        if baseline_compiles
        else 0.0
    )
    return baseline_compiles, spec_compiles, growth
