"""Figure 9 harness: run suites under optimization configurations.

"Runtime" follows the paper: interpretation + compilation + native
execution, here in deterministic model cycles.  Speedups are reported
against the IonMonkey baseline (type specialization + GVN + LICM, none
of §3), as both arithmetic and geometric means across each suite's
benchmarks — the paper's Figure 9 (a,b).  Compilation overhead uses
compile cycles only — Figure 9 (c,d).
"""

import math

from repro.engine.config import BASELINE, PAPER_CONFIGS
from repro.engine.runtime_engine import Engine
from repro.telemetry.metrics import metrics_payload
from repro.telemetry.tracing import Tracer


class BenchmarkRun(object):
    """Measurements from one benchmark under one configuration."""

    __slots__ = (
        "benchmark",
        "config",
        "total_cycles",
        "compile_cycles",
        "output",
        "summary",
        "code_sizes",
        "function_names",
        "compiles_per_function",
        "specialized",
        "successful",
        "deoptimized",
        "trace_events",
        "profile",
        "metrics",
    )

    def __init__(
        self, benchmark, config, engine, output, tracer=None, profiler=None, metrics=False
    ):
        stats = engine.stats
        self.benchmark = benchmark.name
        self.config = config.name
        self.total_cycles = stats.total_cycles
        self.compile_cycles = stats.compile_cycles
        self.output = list(output)
        self.summary = stats.summary()
        self.code_sizes = dict(stats.code_sizes)
        self.function_names = dict(stats.function_names)
        self.compiles_per_function = dict(stats.compiles_per_function)
        self.specialized = set(stats.specialized_functions)
        self.successful = set(stats.successfully_specialized)
        self.deoptimized = set(stats.deoptimized_functions)
        #: JIT event stream (docs/TRACING.md) when the run was traced.
        self.trace_events = list(tracer.events) if tracer is not None else None
        #: The run's CycleProfiler (docs/PROFILING.md) when profiled.
        self.profile = profiler
        #: The engine's metrics payload (docs/METRICS.md) if ``metrics`` —
        #: a plain JSON-safe dict, so it pickles across ``--jobs``
        #: worker processes and merges exactly with
        #: ``repro.telemetry.metrics.merge_payloads``.
        self.metrics = metrics_payload(engine) if metrics else None


def run_benchmark(
    benchmark,
    config,
    engine_kwargs=None,
    trace=False,
    trace_channels=None,
    profile=False,
    collect_metrics=False,
):
    """Run one benchmark under one configuration; returns BenchmarkRun.

    With ``trace``, the engine runs with a fresh event tracer
    (optionally narrowed to ``trace_channels``) and the returned run
    carries the event stream in ``trace_events`` — any Figure 9
    configuration can be traced this way.  With ``profile``, it runs
    with a fresh cycle-exact profiler (docs/PROFILING.md), returned in
    ``run.profile``.  With ``collect_metrics``, the engine's metrics
    payload (docs/METRICS.md) at the end of the run is returned in
    ``run.metrics``.  None of these flags perturbs any
    measured number.
    """
    tracer = Tracer(channels=trace_channels) if trace else None
    profiler = None
    if profile:
        from repro.telemetry.profiler import CycleProfiler

        profiler = CycleProfiler()
    engine = Engine(
        config=config,
        tracer=tracer,
        cycle_profiler=profiler,
        **(engine_kwargs or {})
    )
    output = engine.run_source(benchmark.source)
    return BenchmarkRun(
        benchmark,
        config,
        engine,
        output,
        tracer=tracer,
        profiler=profiler,
        metrics=collect_metrics,
    )


def _run_benchmark_job(job):
    """Module-level worker for ``jobs > 1`` (must be picklable).

    Takes the ``run_benchmark`` arguments as one tuple so it can ride
    through ``multiprocessing.Pool.map``; each worker process runs the
    deterministic engine, so the returned measurements are identical
    to a serial run — parallelism is purely a wall-clock optimization.
    """
    benchmark, config, engine_kwargs, trace, trace_channels, collect_metrics = job
    return run_benchmark(
        benchmark,
        config,
        engine_kwargs,
        trace=trace,
        trace_channels=trace_channels,
        collect_metrics=collect_metrics,
    )


class SweepResult(object):
    """All runs of one suite across configurations."""

    def __init__(self, suite_name):
        self.suite_name = suite_name
        #: {config name: {benchmark name: BenchmarkRun}}
        self.runs = {}

    def add(self, run):
        self.runs.setdefault(run.config, {})[run.benchmark] = run

    def benchmarks(self):
        return sorted(self.runs.get("baseline", {}))

    def run_for(self, config_name, benchmark_name):
        return self.runs[config_name][benchmark_name]


def run_suite_sweep(
    suite_name,
    suite,
    configs=None,
    engine_kwargs=None,
    trace=False,
    trace_channels=None,
    jobs=1,
    collect_metrics=False,
):
    """Run every benchmark under baseline + every configuration.

    Every configuration's printed output must equal the baseline's
    (the correctness oracle built into the harness).
    With ``trace``, every run records its JIT event stream on
    ``BenchmarkRun.trace_events``.  With ``collect_metrics``, every
    run carries its metrics payload in ``run.metrics`` (fold them
    into one fleet view with ``merge_payloads``).  ``jobs > 1`` fans
    the runs out across worker processes (``repro bench --jobs N``);
    because every run is deterministic this changes wall-clock time
    only — results, ordering, verification and metrics are identical
    to a serial sweep.
    """
    configs = configs if configs is not None else PAPER_CONFIGS
    sweep = SweepResult(suite_name)
    pending = [
        (benchmark, BASELINE, engine_kwargs, trace, trace_channels, collect_metrics)
        for benchmark in suite
    ]
    for config in configs:
        pending.extend(
            (benchmark, config, engine_kwargs, trace, trace_channels, collect_metrics)
            for benchmark in suite
        )
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            runs = pool.map(_run_benchmark_job, pending)
    else:
        runs = [_run_benchmark_job(job) for job in pending]
    baseline_runs = {}
    for run in runs[: len(suite)]:
        baseline_runs[run.benchmark] = run
        sweep.add(run)
    for run in runs[len(suite) :]:
        if run.output != baseline_runs[run.benchmark].output:
            raise AssertionError(
                "%s under %s printed %r, baseline printed %r"
                % (run.benchmark, run.config, run.output, baseline_runs[run.benchmark].output)
            )
        sweep.add(run)
    return sweep


# -- aggregation --------------------------------------------------------------


def _percent_speedups(sweep, config_name, metric):
    """Per-benchmark percent improvements of ``config`` vs baseline."""
    speedups = []
    for name in sweep.benchmarks():
        base = getattr(sweep.run_for("baseline", name), metric)
        this = getattr(sweep.run_for(config_name, name), metric)
        if base <= 0:
            continue
        speedups.append(100.0 * (base - this) / base)
    return speedups


def arithmetic_mean(values):
    """Plain average; 0.0 for an empty list."""
    return sum(values) / len(values) if values else 0.0


def geometric_mean_percent(values):
    """Geometric mean of improvement ratios, expressed as a percent.

    Each percent p is a ratio base/new = 1/(1 - p/100); the geometric
    mean of the ratios converts back to a percent.
    """
    if not values:
        return 0.0
    log_sum = 0.0
    for percent in values:
        ratio = 1.0 / max(1e-9, (1.0 - percent / 100.0))
        log_sum += math.log(ratio)
    mean_ratio = math.exp(log_sum / len(values))
    return 100.0 * (1.0 - 1.0 / mean_ratio)


def speedup_rows(sweep, configs=None, metric="total_cycles"):
    """Figure 9 rows: {config name: (arith %, geo %, per-benchmark)}"""
    configs = configs if configs is not None else PAPER_CONFIGS
    rows = {}
    for config in configs:
        per_benchmark = _percent_speedups(sweep, config.name, metric)
        rows[config.name] = (
            arithmetic_mean(per_benchmark),
            geometric_mean_percent(per_benchmark),
            per_benchmark,
        )
    return rows


def format_figure9(sweeps, configs=None, metric="total_cycles", title="runtime speedup"):
    """Render the Figure 9 table: suites as rows, configs as columns."""
    configs = configs if configs is not None else PAPER_CONFIGS
    names = [config.name for config in configs]
    lines = []
    lines.append("-- Overall %s (%% arithmetic mean) --" % title)
    header = "%-14s" % "suite" + "".join("%12s" % n for n in names)
    lines.append(header)
    all_rows = {}
    for sweep in sweeps:
        rows = speedup_rows(sweep, configs, metric)
        all_rows[sweep.suite_name] = rows
        lines.append(
            "%-14s" % sweep.suite_name
            + "".join("%12.2f" % rows[n][0] for n in names)
        )
    lines.append("-- Overall %s (%% geometric mean) --" % title)
    lines.append(header)
    for sweep in sweeps:
        rows = all_rows[sweep.suite_name]
        lines.append(
            "%-14s" % sweep.suite_name
            + "".join("%12.2f" % rows[n][1] for n in names)
        )
    return "\n".join(lines)
