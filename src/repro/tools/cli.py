"""The ``repro`` command line interface.

Subcommands::

    python -m repro run script.js [--config all] [--stats]
    python -m repro trace script.js [--channels compile,deopt] [--jsonl f] [--chrome f]
    python -m repro profile script.js [--json]
    python -m repro profile script.js --cycles [--json] [--collapsed f] [--top 20]
    python -m repro annotate script.js --function f [--config all]
    python -m repro disasm script.js --function f [--config all]
    python -m repro bench --suite sunspider [--configs PS,PS+CP,all] [--jobs N] [--metrics]
    python -m repro bench --cycles [--sections deoptless,serving] [--output BENCH_cycles.json]
    python -m repro bench --compare BENCH_cycles.json [--input NEW.json] [--sections S] [--json-out f] [--report-only]
    python -m repro metrics workload [--prometheus f] [--jsonl f] [--json]
    python -m repro top workload
    python -m repro fuzz [--seed 0] [--iterations 100] [--matrix jit,chaos] [--corpus-dir DIR]
    python -m repro cache stats|clear|evict [--dir DIR] [--max-bytes N] [--max-entries N]
    python -m repro fleet [--tenants 8] [--requests 200] [--jobs N] [--cache off|tenant|shared]
    python -m repro serve [--socket PATH | --port N] [--workers N] [--catalog-programs N]
    python -m repro configs

``run`` executes a guest script under the JIT; ``trace`` runs a script
or a named benchmark (e.g. ``sunspider/bitops-bits-in-byte``) with the
JIT event tracer on and prints the per-function timeline, optionally
writing JSONL and Chrome ``trace_event`` files (see docs/TRACING.md);
``profile`` prints the Section 2-style call histogram, or with
``--cycles`` the cycle-exact (function, tier, block) attribution of
``total_cycles`` with optional flamegraph export (docs/PROFILING.md);
``annotate`` interleaves a function's native disassembly with
per-instruction execution counts, cycle shares and guard failures;
``disasm`` shows a function's optimized MIR and native code; ``bench``
runs a suite sweep and prints its Figure 9 row — with ``--cycles``
it instead measures the deterministic cycle sections and with
``--compare`` gates them against a stored baseline
(docs/METRICS.md); ``metrics`` runs a workload and exports the
metrics payload computed from its engine's stats ledger as Prometheus
text or a JSONL record; ``top`` renders the same payload as a one-shot
console dashboard; ``fuzz`` runs the
differential fuzzer — seeded program generation, the cross-engine
oracle, chaos deopt and ddmin shrinking (docs/FUZZING.md); ``cache``
inspects or clears the persistent cross-run code cache
(docs/COMPILE_PIPELINE.md); ``fleet`` runs reproducible multi-tenant
traffic and ``serve`` answers JSON-line requests over a local socket
(docs/SERVING.md); ``configs`` lists the available optimization
configurations.

``run``, ``trace``, ``metrics`` and ``top`` accept ``--code-cache [DIR]``
to compile through the persistent code cache.
"""

import argparse
import sys

from repro.engine.config import BASELINE, EXTENDED, FULL_SPEC, PAPER_CONFIGS
from repro.errors import JSRangeError, JSReferenceError, JSSyntaxError, JSTypeError
from repro.engine.runtime_engine import (
    DEFAULT_EXECUTOR_BACKEND,
    EXECUTOR_BACKENDS,
    Engine,
)


#: Errors of the guest program.  A subcommand that meets one exits 1
#: with the error on one stderr line; any other exception (a
#: ``CompilerError`` is a VM bug) keeps its traceback.
GUEST_ERRORS = (JSSyntaxError, JSTypeError, JSReferenceError, JSRangeError)


def _config_registry():
    registry = {"baseline": BASELINE, "extended": EXTENDED}
    for config in PAPER_CONFIGS:
        registry[config.name] = config
    return registry


def _resolve_config(name):
    registry = _config_registry()
    if name not in registry:
        raise SystemExit(
            "unknown config %r; available: %s" % (name, ", ".join(sorted(registry)))
        )
    return registry[name]


def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


# -- subcommands -------------------------------------------------------------


def _engine_from_args(args, **sinks):
    """The one way a subcommand builds its engine.

    ``sinks`` are the telemetry objects to attach (``tracer``,
    ``cycle_profiler``); a flag the subcommand does not
    define reads as the engine's default.  ``--code-cache`` absent
    (None) means no persistent cache, bare (empty) the default root
    (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), anything else an
    explicit directory.
    """
    code_cache = None
    spec = getattr(args, "code_cache", None)
    if spec is not None:
        from repro.cache import DiskCodeCache

        code_cache = DiskCodeCache(root=spec if spec else None)
    return Engine(
        config=_resolve_config(args.config),
        spec_cache_capacity=getattr(args, "cache_capacity", 1),
        executor_backend=getattr(args, "executor", None),
        code_cache=code_cache,
        **sinks
    )


def cmd_run(args, out):
    """``repro run``: execute a guest script under the JIT."""
    engine = _engine_from_args(args)
    printed = engine.interpreter.runtime.printed
    try:
        engine.run_source(_read_source(args.script))
    finally:
        # What the guest printed before an uncaught error is still output.
        for line in printed:
            out.write(line + "\n")
    if args.stats:
        out.write("\n-- engine stats (%s) --\n" % engine.config.describe())
        for key, value in sorted(engine.stats.summary().items()):
            out.write("%-18s %s\n" % (key, value))
        cache = engine.code_cache
        if cache is not None:
            # The cache's own ledger, not the engine's: the script's
            # bytecode came off the disk (1 load) or went onto it.
            out.write("%-18s %s\n" % ("program_loads", cache.program_loads))
            out.write("%-18s %s\n" % ("program_stores", cache.program_stores))
    return 0


def _resolve_workload(spec):
    """Turn a trace workload spec into guest source.

    ``spec`` is a script path (or ``-`` for stdin), a
    ``suite/benchmark`` pair, or a bare benchmark name searched across
    all suites.
    """
    import os

    if spec == "-" or os.path.exists(spec):
        return _read_source(spec)
    from repro.workloads import ALL_SUITES

    if "/" in spec:
        suite_name, _, bench_name = spec.partition("/")
        suite = ALL_SUITES.get(suite_name)
        if suite is None:
            raise SystemExit(
                "unknown suite %r; available: %s"
                % (suite_name, ", ".join(sorted(ALL_SUITES)))
            )
        for benchmark in suite:
            if benchmark.name == bench_name:
                return benchmark.source
        raise SystemExit(
            "no benchmark %r in %s; available: %s"
            % (bench_name, suite_name, ", ".join(b.name for b in suite))
        )
    for suite in ALL_SUITES.values():
        for benchmark in suite:
            if benchmark.name == spec:
                return benchmark.source
    raise SystemExit(
        "workload %r is neither a file nor a known benchmark "
        "(try e.g. sunspider/bitops-bits-in-byte)" % spec
    )


def cmd_trace(args, out):
    """``repro trace``: run a workload with the JIT event tracer on."""
    from repro.telemetry.tracing import (
        Tracer,
        format_timeline,
        write_chrome_trace,
        write_jsonl,
    )

    channels = args.channels.split(",") if args.channels else None
    try:
        tracer = Tracer(channels=channels)
    except ValueError as error:
        raise SystemExit(str(error))
    source = _resolve_workload(args.workload)
    # profile.summary only exists when a profiler runs alongside the
    # tracer; asking for the channel implies wanting one.
    cycle_profiler = None
    if channels is None or "profile" in channels:
        from repro.telemetry.profiler import CycleProfiler

        cycle_profiler = CycleProfiler()
    engine = _engine_from_args(args, tracer=tracer, cycle_profiler=cycle_profiler)
    engine.run_source(source)
    if args.jsonl:
        write_jsonl(tracer.events, args.jsonl)
        out.write("wrote %d events to %s\n" % (len(tracer.events), args.jsonl))
    if args.chrome:
        write_chrome_trace(tracer.events, args.chrome)
        out.write(
            "wrote Chrome trace to %s (load in chrome://tracing or Perfetto)\n"
            % args.chrome
        )
    if not args.no_timeline:
        out.write(format_timeline(tracer.events, limit=args.limit) + "\n")
    out.write(
        "-- %d events under %s (clock: model cycles) --\n"
        % (len(tracer.events), engine.config.describe())
    )
    return 0


def _run_for_metrics(args):
    """Run ``args.workload``; returns the engine's metrics payload.

    Shared by ``metrics`` and ``top``.
    """
    from repro.telemetry.metrics import metrics_payload

    engine = _engine_from_args(args)
    engine.run_source(_resolve_workload(args.workload))
    return metrics_payload(engine)


def cmd_metrics(args, out):
    """``repro metrics``: run a workload and export its metrics."""
    import json

    from repro.telemetry.metrics import (
        to_prometheus,
        write_metrics_jsonl,
        write_prometheus,
    )

    payload = _run_for_metrics(args)
    wrote = False
    if args.prometheus:
        write_prometheus(payload, args.prometheus)
        out.write("wrote Prometheus exposition to %s\n" % args.prometheus)
        wrote = True
    if args.jsonl:
        write_metrics_jsonl(payload, args.jsonl)
        out.write("wrote the metrics record to %s\n" % args.jsonl)
        wrote = True
    if args.json:
        out.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        wrote = True
    if not wrote:
        out.write(to_prometheus(payload))
    return 0


def cmd_top(args, out):
    """``repro top``: one-shot console dashboard for a workload's run."""
    from repro.telemetry.metrics import format_dashboard

    out.write(
        format_dashboard(_run_for_metrics(args), title="repro top — %s" % args.workload)
        + "\n"
    )
    return 0


def _run_cycle_profile(args):
    """Run ``args.script`` under an engine with a cycle profiler.

    Returns ``(engine, profiler)``; shared by ``profile --cycles`` and
    ``annotate``.
    """
    from repro.telemetry.profiler import CycleProfiler

    profiler = CycleProfiler()
    engine = _engine_from_args(args, cycle_profiler=profiler)
    engine.run_source(_resolve_workload(args.script))
    return engine, profiler


def cmd_profile(args, out):
    """``repro profile``: call histogram, or ``--cycles`` attribution."""
    import json

    if args.cycles:
        from repro.telemetry.reports import (
            format_function_table,
            profile_as_dict,
            write_collapsed,
        )

        engine, profiler = _run_cycle_profile(args)
        total = engine.stats.total_cycles
        if args.collapsed:
            write_collapsed(profiler, args.collapsed)
            out.write("wrote collapsed stacks to %s\n" % args.collapsed)
        if args.json:
            out.write(
                json.dumps(profile_as_dict(profiler, engine.stats), indent=1) + "\n"
            )
            return 0
        summary = profiler.summary()
        out.write(
            "total cycles: %d (attributed: %d)\n"
            % (total, summary["attributed_cycles"])
        )
        out.write(
            "functions: %d · binaries: %d · guard failures: %d\n\n"
            % (summary["functions"], summary["binaries"], summary["guard_failures"])
        )
        out.write(format_function_table(profiler, total_cycles=total, top=args.top) + "\n")
        return 0

    from repro.jsvm.interpreter import Interpreter
    from repro.telemetry.histograms import CallProfiler

    profiler = CallProfiler()
    interpreter = Interpreter(profiler=profiler)
    interpreter.run_source(_resolve_workload(args.script))
    profiles = sorted(
        profiler.profiles.values(), key=lambda p: p.call_count, reverse=True
    )
    total_calls = sum(profile.call_count for profile in profiles)
    if args.json:
        payload = {
            "functions": profiler.num_functions,
            "total_calls": total_calls,
            "fraction_called_once": profiler.fraction_called_once(),
            "fraction_single_argument_set": profiler.fraction_single_argument_set(),
            "profiles": [
                {
                    "name": profile.name,
                    "calls": profile.call_count,
                    "call_share": (
                        profile.call_count / total_calls if total_calls else 0.0
                    ),
                    "argument_sets": profile.distinct_argument_sets,
                    "monomorphic": profile.monomorphic,
                }
                for profile in profiles
            ],
        }
        out.write(json.dumps(payload, indent=1) + "\n")
        return 0
    out.write("functions: %d\n" % profiler.num_functions)
    out.write("called once: %.2f%%\n" % (100 * profiler.fraction_called_once()))
    out.write(
        "single argument set: %.2f%%\n" % (100 * profiler.fraction_single_argument_set())
    )
    out.write(
        "\n%-24s %10s %8s %14s %6s\n"
        % ("function", "calls", "calls%", "argument sets", "mono")
    )
    for profile in profiles[: args.top]:
        share = 100.0 * profile.call_count / total_calls if total_calls else 0.0
        out.write(
            "%-24s %10d %7.2f%% %14d %6s\n"
            % (
                profile.name,
                profile.call_count,
                share,
                profile.distinct_argument_sets,
                "yes" if profile.monomorphic else "no",
            )
        )
    return 0


def cmd_annotate(args, out):
    """``repro annotate``: disassembly with execution counts per line."""
    from repro.telemetry.reports import annotate_function

    engine, profiler = _run_cycle_profile(args)
    try:
        text = annotate_function(profiler, args.function)
    except ValueError as error:
        raise SystemExit(str(error))
    out.write("; config: %s\n" % engine.config.describe())
    out.write(
        "; total cycles: %d · native cycles: %d · guard failures: %d\n\n"
        % (engine.stats.total_cycles, engine.stats.native_cycles, profiler.guard_failures())
    )
    out.write(text + "\n")
    return 0


def cmd_disasm(args, out):
    """``repro disasm``: bytecode, optimized MIR and native code."""
    from repro.engine.jit import compile_function
    from repro.jsvm.bytecompiler import compile_source
    from repro.jsvm.feedback import TypeFeedback
    from repro.jsvm.interpreter import Interpreter
    from repro.mir.printer import format_graph
    from repro.opts.loop_inversion import rotate_loops

    config = _resolve_config(args.config)
    source = _read_source(args.script)
    toplevel = compile_source(source)

    functions = {}

    def collect(code):
        for constant in code.constants:
            if hasattr(constant, "instructions"):
                functions[constant.name] = constant
                collect(constant)

    collect(toplevel)
    if args.function not in functions:
        raise SystemExit(
            "no function %r; found: %s" % (args.function, ", ".join(sorted(functions)))
        )
    target = functions[args.function]

    # Warm up interpreted so the compiler sees real type feedback.
    for code in functions.values():
        code.feedback = TypeFeedback(code.num_params)
    interpreter = Interpreter()
    original = interpreter.call_function
    recorded = {}

    def recording(function, this_value, call_args):
        if function.code.feedback is not None:
            function.code.feedback.record_args(call_args)
        if function.code is target and "args" not in recorded:
            recorded["args"] = list(call_args)
            recorded["this"] = this_value
        return original(function, this_value, call_args)

    interpreter.call_function = recording
    interpreter.run_code(toplevel)

    if config.loop_inversion:
        rotate_loops(target, recursive=False)

    param_values = recorded.get("args") if config.param_spec else None
    result = compile_function(
        target,
        config,
        feedback=target.feedback,
        param_values=param_values,
        this_value=recorded.get("this"),
        keep_graph=True,
    )
    out.write("; config: %s\n" % config.describe())
    if param_values is not None:
        out.write("; specialized on: %r\n" % (param_values,))
    out.write("\n== bytecode ==\n")
    out.write(target.disassemble() + "\n")
    out.write("\n== optimized MIR ==\n")
    out.write(format_graph(result.graph) + "\n")
    out.write("\n== native code (%d instructions) ==\n" % result.native.size)
    out.write(result.native.disassemble() + "\n")
    return 0


def cmd_bench(args, out):
    """``repro bench``: Figure 9 rows, the ``--cycles`` sections, or
    the ``--compare`` gate against a stored baseline."""
    from repro.bench.harness import format_figure9, run_suite_sweep
    from repro.workloads import ALL_SUITES

    if args.compare or args.cycles:
        import os

        from repro.bench import cycles
        from repro.bench.compare import compare_results, format_compare

        if args.compare and not os.path.exists(args.compare):
            raise SystemExit("no baseline at %s" % args.compare)
        named = None
        if args.sections:
            try:
                named = cycles.select_sections(args.sections)
            except ValueError as error:
                raise SystemExit(str(error))
        if args.input:
            current = cycles.load_json(args.input)
        else:
            current = cycles.run(named or cycles.SECTIONS)
        if args.cycles:
            out.write(cycles.format_cycles(current) + "\n")
            if args.output:
                cycles.write_json(current, args.output)
                out.write("wrote %s\n" % args.output)
        if not args.compare:
            return 0
        report = compare_results(current, cycles.load_json(args.compare), named)
        out.write(format_compare(report) + "\n")
        if args.json_out:
            cycles.write_json(report, args.json_out)
            out.write("delta report written: %s\n" % args.json_out)
        if report["regressions"] and not args.report_only:
            return 1
        return 0

    if not args.suite:
        raise SystemExit("--suite is required (or use --cycles / --compare)")
    if args.configs:
        configs = [_resolve_config(name) for name in args.configs.split(",")]
    else:
        configs = PAPER_CONFIGS
    sweep = run_suite_sweep(
        args.suite,
        ALL_SUITES[args.suite],
        configs=configs,
        jobs=args.jobs,
        collect_metrics=args.metrics,
    )
    out.write(format_figure9([sweep], configs, "total_cycles", "runtime speedup") + "\n")
    out.write(
        format_figure9([sweep], configs, "compile_cycles", "compilation overhead") + "\n"
    )
    if args.metrics:
        from repro.telemetry.metrics import format_dashboard, merge_payloads

        payloads = [
            run.metrics
            for by_bench in sweep.runs.values()
            for run in by_bench.values()
            if run.metrics is not None
        ]
        fleet = merge_payloads(payloads)
        out.write(
            format_dashboard(
                fleet,
                title="repro top — %s fleet (%d runs)"
                % (args.suite, len(payloads)),
            )
            + "\n"
        )
    return 0


def cmd_fleet(args, out):
    """``repro fleet``: reproducible multi-tenant fleet traffic run."""
    import json

    from repro.serving.fleet import (
        FleetProfile,
        generate_schedule,
        run_fleet,
        schedule_jsonl,
    )
    from repro.telemetry.metrics import write_metrics_jsonl

    profile = FleetProfile(
        tenants=args.tenants,
        requests=args.requests,
        programs=args.programs,
        seed=args.seed,
        functions_per_program=args.functions,
    )
    if args.schedule_out:
        with open(args.schedule_out, "w") as handle:
            handle.write(schedule_jsonl(generate_schedule(profile)))
        out.write("schedule written: %s\n" % args.schedule_out)
    result = run_fleet(
        profile,
        jobs=args.jobs,
        cache_mode=args.cache,
        cache_root=args.cache_dir,
        shards=args.shards,
    )
    out.write(
        "fleet: %d requests over %d tenants (seed %d, jobs %d, cache %s)\n"
        % (result["requests"], result["tenants"], args.seed, args.jobs, args.cache)
    )
    out.write(
        "service p50 %s / p99 %s cycles; %d errors\n"
        % (
            "{:,}".format(result["p50_service_cycles"]),
            "{:,}".format(result["p99_service_cycles"]),
            result["errors"],
        )
    )
    out.write(
        "disk: %d hits / %d misses (hit rate %.3f)\n"
        % (result["disk_hits"], result["disk_misses"], result["warm_hit_rate"])
    )
    if args.metrics_jsonl:
        write_metrics_jsonl(result["metrics"], args.metrics_jsonl)
        out.write("merged metrics written: %s\n" % args.metrics_jsonl)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write("full result written: %s\n" % args.json)
    if result["errors"]:
        first = next(r for r in result["responses"] if r["status"] != "ok")
        out.write("fleet: seq %d failed: %s\n" % (first["seq"], first["error"]))
        return 1
    return 0


def cmd_serve(args, out):
    """``repro serve``: the asyncio JSON-line serving front end."""
    import asyncio

    from repro.serving.fleet import FleetProfile, build_catalog
    from repro.serving.server import ServingServer

    if args.cache != "off" and not args.cache_dir:
        raise SystemExit("serve: --cache %s needs --cache-dir" % args.cache)
    catalog = None
    if args.catalog_programs:
        catalog = build_catalog(
            FleetProfile(
                programs=args.catalog_programs,
                seed=args.catalog_seed,
                functions_per_program=args.catalog_functions,
            )
        )
    server = ServingServer(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_mode=args.cache,
        cache_root=args.cache_dir,
        shards=args.shards,
        catalog=catalog,
        metrics_out=args.metrics_out,
    )

    async def _serve():
        address = await server.start()
        out.write("serving on %s\n" % (address,))
        out.flush()
        await server.wait_closed()

    asyncio.run(_serve())
    summary = server.summary or {}
    out.write("server stopped; %d tenants\n" % len(summary.get("tenants", [])))
    return 0


def _fuzz_replay(args, out, matrix):
    """``repro fuzz --replay DIR``: corpus triage instead of generation."""
    import os

    from repro.fuzz.corpus import triage_corpus

    if not os.path.isdir(args.replay):
        raise SystemExit("fuzz --replay: no such directory: %s" % args.replay)
    try:
        results = triage_corpus(
            args.replay,
            matrix=matrix,
            reshrink=args.shrink,
            log=lambda message: out.write(message + "\n"),
        )
    except ValueError as error:
        raise SystemExit(str(error))
    failing = sorted(name for name, found in results.items() if found)
    out.write(
        "fuzz --replay: %d reproducer(s), %d mismatch(es)\n"
        % (len(results), len(failing))
    )
    if failing:
        for name in failing:
            out.write("  still failing: %s\n" % name)
        return 1
    return 0


def cmd_fuzz(args, out):
    """``repro fuzz``: differential fuzzing campaign (docs/FUZZING.md)."""
    from repro.fuzz import FuzzSession
    from repro.fuzz.oracle import VARIANT_NAMES
    from repro.telemetry.tracing import Tracer, write_jsonl

    matrix = args.matrix.split(",") if args.matrix else None
    if args.replay is not None:
        return _fuzz_replay(args, out, matrix)
    tracer = Tracer(channels=("fuzz",)) if args.jsonl else None
    try:
        session = FuzzSession(
            seed=args.seed,
            iterations=args.iterations,
            matrix=matrix,
            shrink=args.shrink,
            corpus_dir=args.corpus_dir,
            tracer=tracer,
            log=lambda message: out.write(message + "\n"),
        )
    except ValueError as error:
        raise SystemExit(str(error))
    summary = session.run()
    if args.jsonl:
        write_jsonl(tracer.events, args.jsonl)
        out.write("wrote %d events to %s\n" % (len(tracer.events), args.jsonl))
    out.write(
        "fuzz: seed=%d iterations=%d matrix=%s\n"
        % (summary["seed"], summary["iterations"], ",".join(summary["variants"]))
    )
    if summary["failures"]:
        out.write("FAIL: %d mismatching program(s)\n" % summary["failures"])
        for path in summary["reproducers"]:
            out.write("  reproducer: %s\n" % path)
        for record in session.failures:
            if record["path"] is None:
                out.write(
                    "  iteration %d: %s mismatch in %s (%s)\n"
                    % (
                        record["iteration"],
                        record["kind"],
                        record["variant"],
                        record["detail"],
                    )
                )
        return 1
    out.write(
        "OK: all variants agree (%s)\n" % ", ".join(VARIANT_NAMES)
        if matrix is None
        else "OK: all variants agree\n"
    )
    return 0


def cmd_cache(args, out):
    """``repro cache``: inspect, clear or evict the persistent code cache."""
    from repro.cache import DiskCodeCache

    cache = DiskCodeCache(root=args.dir)
    if args.action == "stats":
        info = cache.stats()
        out.write("cache root: %s\n" % info["root"])
        out.write("entries:    %d\n" % info["entries"])
        out.write("bytes:      %d\n" % info["bytes"])
        for kind in sorted(info["kinds"]):
            held = info["kinds"][kind]
            out.write(
                "  %-9s %d entries, %d bytes\n" % (kind + ":", held["entries"], held["bytes"])
            )
        return 0
    if args.action == "evict":
        if args.max_bytes is None and args.max_entries is None:
            raise SystemExit("cache evict: need --max-bytes and/or --max-entries")
        removed = cache.evict(max_bytes=args.max_bytes, max_entries=args.max_entries)
        info = cache.stats()
        out.write(
            "evicted %d artifact(s) from %s (%d entries, %d bytes remain)\n"
            % (removed, cache.root, info["entries"], info["bytes"])
        )
        return 0
    removed = cache.clear()
    out.write("removed %d cached artifact(s) from %s\n" % (removed, cache.root))
    return 0


def cmd_configs(args, out):
    """``repro configs``: list optimization configurations."""
    registry = _config_registry()
    for name in sorted(registry):
        out.write("%-14s %s\n" % (name, registry[name].describe()))
    return 0


# -- entry point --------------------------------------------------------------


def _at_least(minimum, maximum=None):
    """An argparse ``type``: an int of at least ``minimum`` and, when
    given, at most ``maximum`` (a count, a size, a port)."""

    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (minimum, value))
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError("must be at most %d, got %d" % (maximum, value))
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = "int"
    return parse


def _add_executor_flag(subparser, prefix=""):
    """Attach ``--executor``; the help names the engine's real default."""
    subparser.add_argument(
        "--executor",
        choices=list(EXECUTOR_BACKENDS),
        default=None,
        help="%sexecutor backend (default: %s)" % (prefix, DEFAULT_EXECUTOR_BACKEND),
    )


def _add_code_cache_flag(subparser):
    """Attach ``--code-cache``."""
    subparser.add_argument(
        "--code-cache",
        metavar="DIR",
        nargs="?",
        const="",
        default=None,
        help="compile through the persistent code cache; DIR overrides "
        "$REPRO_CACHE_DIR / ~/.cache/repro",
    )


def build_parser():
    """Construct the argparse command tree."""
    from repro.fuzz.oracle import VARIANT_NAMES
    from repro.telemetry.tracing import CHANNELS
    from repro.workloads import ALL_SUITES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Just-in-Time Value Specialization (CGO 2013) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a guest script under the JIT")
    run.add_argument("script", help="path to a guest script, or - for stdin")
    run.add_argument("--config", default="all", help="optimization config (see `configs`)")
    run.add_argument("--stats", action="store_true", help="print engine statistics")
    run.add_argument(
        "--cache-capacity",
        type=_at_least(1),
        default=1,
        help="specialized binaries kept per function",
    )
    _add_executor_flag(run)
    _add_code_cache_flag(run)
    run.set_defaults(handler=cmd_run)

    trace = sub.add_parser(
        "trace", help="run a workload with JIT event tracing (docs/TRACING.md)"
    )
    trace.add_argument(
        "workload",
        help="script path, -, suite/benchmark (e.g. sunspider/bitops-bits-in-byte), "
        "or a bare benchmark name",
    )
    trace.add_argument("--config", default="all", help="optimization config (see `configs`)")
    trace.add_argument(
        "--channels",
        help="comma-separated channel subset (default: all): %s"
        % ",".join(CHANNELS),
    )
    trace.add_argument("--jsonl", metavar="PATH", help="write events as JSON Lines")
    trace.add_argument(
        "--chrome", metavar="PATH", help="write a Chrome trace_event file (Perfetto)"
    )
    trace.add_argument(
        "--no-timeline", action="store_true", help="skip the stdout timeline"
    )
    trace.add_argument(
        "--limit", type=_at_least(1), default=None, help="max timeline rows per function"
    )
    _add_code_cache_flag(trace)
    trace.set_defaults(handler=cmd_trace)

    profile = sub.add_parser(
        "profile",
        help="call/argument-set histogram, or --cycles attribution (docs/PROFILING.md)",
    )
    profile.add_argument(
        "script",
        help="script path, -, suite/benchmark, or a bare benchmark name",
    )
    profile.add_argument("--top", type=_at_least(1), default=20, help="rows to display")
    profile.add_argument(
        "--cycles",
        action="store_true",
        help="cycle-exact profile under the JIT instead of the §2 call histogram",
    )
    profile.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    profile.add_argument(
        "--collapsed",
        metavar="PATH",
        help="--cycles: write collapsed stacks (flamegraph.pl / speedscope format)",
    )
    profile.add_argument(
        "--config", default="all", help="--cycles: optimization config (see `configs`)"
    )
    _add_executor_flag(profile, prefix="--cycles: ")
    profile.set_defaults(handler=cmd_profile)

    annotate = sub.add_parser(
        "annotate",
        help="native disassembly annotated with per-instruction counts/cycles/guards",
    )
    annotate.add_argument(
        "script",
        help="script path, -, suite/benchmark, or a bare benchmark name",
    )
    annotate.add_argument("--function", required=True, help="guest function name")
    annotate.add_argument("--config", default="all")
    _add_executor_flag(annotate)
    annotate.set_defaults(handler=cmd_annotate)

    disasm = sub.add_parser("disasm", help="show a function's MIR and native code")
    disasm.add_argument("script")
    disasm.add_argument("--function", required=True, help="guest function name")
    disasm.add_argument("--config", default="all")
    disasm.set_defaults(handler=cmd_disasm)

    bench = sub.add_parser(
        "bench",
        help="run a suite sweep (Figure 9 row), or the --cycles sections "
        "and the --compare gate",
    )
    bench.add_argument("--suite", choices=sorted(ALL_SUITES), help="suite sweep")
    bench.add_argument(
        "--configs",
        help="comma-separated config names (default: all %d)" % len(PAPER_CONFIGS),
    )
    bench.add_argument(
        "--cycles",
        action="store_true",
        help="measure the deterministic cycle sections (docs/METRICS.md)",
    )
    bench.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="--cycles: write results JSON (e.g. BENCH_cycles.json)",
    )
    bench.add_argument(
        "--jobs",
        type=_at_least(1),
        default=1,
        help="suite sweep: parallel worker processes (wall-clock only; "
        "results are order-preserving and identical to --jobs 1)",
    )
    bench.add_argument(
        "--metrics",
        action="store_true",
        help="suite sweep: collect per-run metrics and print the merged "
        "fleet dashboard (docs/METRICS.md)",
    )
    bench.add_argument(
        "--compare",
        metavar="BASELINE_JSON",
        default=None,
        help="the gate: judge the cycle sections against this baseline "
        "(e.g. BENCH_cycles.json)",
    )
    bench.add_argument(
        "--input",
        metavar="PATH",
        default=None,
        help="--cycles / --compare: stored results JSON (default: measure now)",
    )
    bench.add_argument(
        "--sections",
        default=None,
        help="--cycles / --compare: comma-separated section names (default: all)",
    )
    bench.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="--compare: write the machine-readable delta report here",
    )
    bench.add_argument(
        "--report-only",
        action="store_true",
        help="--compare: always exit 0; regressions reported, not fatal",
    )
    bench.set_defaults(handler=cmd_bench)

    def _add_metrics_flags(subparser):
        subparser.add_argument(
            "workload",
            help="script path, -, suite/benchmark, or a bare benchmark name",
        )
        subparser.add_argument(
            "--config", default="all", help="optimization config (see `configs`)"
        )
        _add_executor_flag(subparser)
        _add_code_cache_flag(subparser)

    metrics = sub.add_parser(
        "metrics",
        help="run a workload and export its engine's metrics (docs/METRICS.md)",
    )
    _add_metrics_flags(metrics)
    metrics.add_argument(
        "--prometheus",
        metavar="PATH",
        help="write Prometheus text exposition (default output when no "
        "export flag is given: exposition on stdout)",
    )
    metrics.add_argument(
        "--jsonl", metavar="PATH", help="write the payload as one JSON Lines record"
    )
    metrics.add_argument(
        "--json", action="store_true", help="print the full payload dict as JSON"
    )
    metrics.set_defaults(handler=cmd_metrics)

    top = sub.add_parser(
        "top", help="console health dashboard for one workload run"
    )
    _add_metrics_flags(top)
    top.set_defaults(handler=cmd_top)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing with chaos deopt (docs/FUZZING.md)",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz.add_argument(
        "--iterations", type=_at_least(1), default=100, help="programs to generate and check"
    )
    fuzz.add_argument(
        "--matrix",
        help="comma-separated variant subset (default: all): %s" % ",".join(VARIANT_NAMES),
    )
    fuzz.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="ddmin-reduce mismatching programs before banking them",
    )
    fuzz.add_argument(
        "--corpus-dir",
        metavar="DIR",
        default=None,
        help="write (shrunk) reproducers for mismatching programs here",
    )
    fuzz.add_argument(
        "--replay",
        metavar="DIR",
        default=None,
        help="triage mode: re-run every .js reproducer in DIR through the "
        "oracle instead of generating programs (--shrink re-reduces and "
        "rewrites still-failing files in place); exits 1 on any mismatch",
    )
    fuzz.add_argument(
        "--jsonl", metavar="PATH", help="write fuzz.* trace events as JSON Lines"
    )
    fuzz.set_defaults(handler=cmd_fuzz)

    cache = sub.add_parser(
        "cache", help="inspect, clear or evict the persistent code cache"
    )
    cache.add_argument(
        "action", choices=["stats", "clear", "evict"], help="what to do"
    )
    cache.add_argument(
        "--dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache.add_argument(
        "--max-bytes",
        type=_at_least(0),
        default=None,
        help="evict: prune oldest artifacts until total size fits",
    )
    cache.add_argument(
        "--max-entries",
        type=_at_least(0),
        default=None,
        help="evict: prune oldest artifacts until this many remain",
    )
    cache.set_defaults(handler=cmd_cache)

    def _add_serving_cache_flags(subparser, default_cache):
        subparser.add_argument(
            "--cache",
            choices=["off", "tenant", "shared"],
            default=default_cache,
            help="artifact store mode: off, per-tenant, or shared shards "
            "(default %s)" % default_cache,
        )
        subparser.add_argument(
            "--cache-dir",
            metavar="DIR",
            default=None,
            help="store root (fleet default: private temp dir, deleted after)",
        )
        subparser.add_argument(
            "--shards",
            type=_at_least(1),
            default=4,
            help="disk-cache shard count (default 4)",
        )

    fleet = sub.add_parser(
        "fleet",
        help="run reproducible multi-tenant fleet traffic (docs/SERVING.md)",
    )
    fleet.add_argument("--tenants", type=_at_least(1), default=8, help="tenant count")
    fleet.add_argument("--requests", type=_at_least(1), default=200, help="request count")
    fleet.add_argument(
        "--programs", type=_at_least(1), default=6, help="catalog size (distinct programs)"
    )
    fleet.add_argument("--seed", type=int, default=0, help="schedule/catalog seed")
    fleet.add_argument(
        "--functions",
        type=_at_least(1),
        default=10,
        help="guest functions per catalog program (default 10)",
    )
    fleet.add_argument(
        "--jobs",
        type=_at_least(1),
        default=1,
        help="worker processes (whole tenants routed as `repro serve` routes "
        "them; cycles and outputs are identical at any job count)",
    )
    fleet.add_argument(
        "--schedule-out",
        metavar="PATH",
        default=None,
        help="write the request schedule as canonical JSONL",
    )
    fleet.add_argument(
        "--metrics-jsonl",
        metavar="PATH",
        default=None,
        help="write the merged fleet metrics payload as JSONL",
    )
    fleet.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the full result (responses included) as JSON",
    )
    _add_serving_cache_flags(fleet, "tenant")
    fleet.set_defaults(handler=cmd_fleet)

    serve = sub.add_parser(
        "serve",
        help="serve JSON-line requests over a local socket (docs/SERVING.md)",
    )
    serve.add_argument(
        "--socket", metavar="PATH", default=None, help="bind a unix socket here"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host (when no --socket)"
    )
    serve.add_argument(
        "--port", type=_at_least(0, 65535), default=0, help="TCP bind port (0: ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=_at_least(0),
        default=0,
        help="engine worker processes (0: in-process)",
    )
    serve.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="flush the merged metrics payload here (JSONL) on shutdown",
    )
    serve.add_argument(
        "--catalog-programs",
        type=_at_least(0),
        default=0,
        help="preload a fleet catalog of N programs (0: none; requests "
        "must then ship source)",
    )
    serve.add_argument(
        "--catalog-seed", type=int, default=0, help="catalog generator seed"
    )
    serve.add_argument(
        "--catalog-functions",
        type=_at_least(1),
        default=10,
        help="guest functions per catalog program",
    )
    _add_serving_cache_flags(serve, "off")
    serve.set_defaults(handler=cmd_serve)

    configs = sub.add_parser("configs", help="list optimization configurations")
    configs.set_defaults(handler=cmd_configs)
    return parser


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out if out is not None else sys.stdout)
    except GUEST_ERRORS as error:
        sys.stderr.write("Uncaught %s: %s\n" % (type(error).__name__, error))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
