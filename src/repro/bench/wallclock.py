"""Wall-clock comparison of executor backends (host-level benching).

Everything else in :mod:`repro.bench` measures *model* cycles — the
deterministic currency of the paper's figures, identical on every
machine.  This module instead measures real seconds: it exists to
prove that the closure-compiled backend (``repro.lir.closures``)
actually buys host performance over the reference decode loop, and to
keep that proof from regressing.

Protocol: each suite is run end-to-end (compilation, interpretation
and native execution included — the honest cost of the engine) under
each backend, best-of-``repeats`` wall-clock seconds.  The headline
metric is the per-suite **speedup** ``simple_seconds /
closure_seconds`` and its geometric mean.  Speedups are ratios of two
measurements taken on the same machine moments apart, so they are
comparable across hosts — which is what lets ``tools/perf_gate.py``
gate on a checked-in baseline (``BENCH_wallclock.json``) with a
tolerance, instead of gating on absolute seconds.
"""

import json
import math
import os
import shutil
import tempfile
import time

from repro.engine.config import FULL_SPEC
from repro.engine.runtime_engine import Engine
from repro.workloads import ALL_SUITES

#: Backends compared by default: the reference decode loop, the
#: closure-compiled blocks, and the whole-binary functions.
DEFAULT_BACKENDS = ("simple", "closure", "whole")


def measure_suite(suite, backend, config=FULL_SPEC, repeats=3):
    """Time one full pass of ``suite`` under ``backend``.

    Returns ``{"seconds", "native_instructions", "interp_ops"}`` with
    best-of-``repeats`` seconds (the standard way to strip scheduler
    noise from a deterministic workload) and the per-pass simulated
    work counters, which are backend-invariant and let reports quote
    simulated instructions per host second.
    """
    best = None
    native_instructions = 0
    interp_ops = 0
    for _ in range(repeats):
        native_instructions = 0
        interp_ops = 0
        start = time.perf_counter()
        for benchmark in suite:
            engine = Engine(config=config, executor_backend=backend)
            engine.run_source(benchmark.source)
            native_instructions += engine.executor.instructions_executed
            interp_ops += engine.interpreter.ops_executed
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return {
        "seconds": best,
        "native_instructions": native_instructions,
        "interp_ops": interp_ops,
    }


def measure_background_cycles(suites=None, config=FULL_SPEC):
    """Simulated-cycle comparison: synchronous vs background lane.

    Unlike the rest of this module, the numbers here are *model
    cycles* — deterministic and machine-independent — so the section
    rides along in ``BENCH_wallclock.json`` as an exact regression
    gate.  Per suite: summed ``total_cycles`` under
    ``background_compile=False`` and ``=True``, plus the per-benchmark
    geomean of the ``background / sync`` ratio (< 1.0 means the lane
    hides compile stalls).
    """
    if suites is None:
        suites = ALL_SUITES
    section = {"suites": {}}
    all_ratios = []
    for name, suite in suites.items():
        sync_total = 0
        background_total = 0
        ratios = []
        for benchmark in suite:
            cycles = []
            for background in (False, True):
                engine = Engine(config=config, background_compile=background)
                engine.run_source(benchmark.source)
                cycles.append(engine.stats.total_cycles)
            sync_total += cycles[0]
            background_total += cycles[1]
            if cycles[0] > 0:
                ratios.append(cycles[1] / cycles[0])
        geomean = (
            math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else 1.0
        )
        section["suites"][name] = {
            "sync_cycles": sync_total,
            "background_cycles": background_total,
            "cycle_ratio": round(geomean, 5),
        }
        all_ratios.extend(ratios)
    if all_ratios:
        section["geomean_cycle_ratio"] = round(
            math.exp(sum(math.log(r) for r in all_ratios) / len(all_ratios)), 5
        )
    return section


def measure_deoptless_cycles(config=FULL_SPEC, backends=DEFAULT_BACKENDS):
    """Simulated-cycle comparison: §4 bail-and-recompile vs deoptless.

    Runs the precondition-churn suite (``repro.workloads.churn``,
    docs/DEOPTLESS.md) with the specialization dispatch table off
    (``Engine(deoptless=False)`` — the paper's §4 discard policy) and
    on, on the reference backend.  Like the background section these
    are *model cycles*: deterministic, machine-independent, gated
    exactly.  Per benchmark the table must also be **observably
    free**: guest output is compared between off and on, and the on
    run is repeated under every other executor backend, which must
    reproduce both the output and the cycle total bit for bit.

    The headline ratios carry the feature's acceptance floors
    (``DEOPTLESS_CYCLE_CEILING``, ``DEOPTLESS_DISCARD_CEILING``):
    dispatching into retained siblings must cut the suite's total
    cycles by >= 20% and its binary discards by >= 50% versus the
    bail-and-recompile policy.
    """
    from repro.workloads import ALL_SUITES as _SUITES

    suite = _SUITES["churn"]
    off_cycles = on_cycles = 0
    off_invalidations = on_invalidations = 0
    reentries = misses = generalized = 0
    outputs_identical = True
    backends_identical = True
    benchmarks = {}
    for benchmark in suite:
        off_engine = Engine(config=config, deoptless=False)
        off_output = off_engine.run_source(benchmark.source)
        on_engine = Engine(config=config, deoptless=True)
        on_output = on_engine.run_source(benchmark.source)
        outputs_identical = outputs_identical and off_output == on_output
        for backend in backends:
            if backend == "simple":
                continue
            alt = Engine(config=config, deoptless=True, executor_backend=backend)
            alt_output = alt.run_source(benchmark.source)
            backends_identical = backends_identical and (
                alt_output == on_output
                and alt.stats.total_cycles == on_engine.stats.total_cycles
            )
        off_cycles += off_engine.stats.total_cycles
        on_cycles += on_engine.stats.total_cycles
        off_invalidations += off_engine.stats.invalidations
        on_invalidations += on_engine.stats.invalidations
        reentries += on_engine.stats.deoptless_reentries
        misses += on_engine.stats.deoptless_misses
        generalized += on_engine.stats.deoptless_generalized_compiles
        benchmarks[benchmark.name] = {
            "off_cycles": off_engine.stats.total_cycles,
            "on_cycles": on_engine.stats.total_cycles,
            "cycle_ratio": round(
                on_engine.stats.total_cycles / off_engine.stats.total_cycles, 5
            ),
        }
    return {
        "suite": "churn",
        "off_cycles": off_cycles,
        "on_cycles": on_cycles,
        "cycle_ratio": round(on_cycles / off_cycles, 5),
        "off_invalidations": off_invalidations,
        "on_invalidations": on_invalidations,
        "invalidation_ratio": round(
            on_invalidations / off_invalidations, 5
        ) if off_invalidations else 0.0,
        "deoptless_reentries": reentries,
        "deoptless_misses": misses,
        "deoptless_generalized_compiles": generalized,
        "outputs_identical": outputs_identical,
        "backends_identical": backends_identical,
        "benchmarks": benchmarks,
    }


def _web_programs():
    """The deterministic page-load workload for the warm-cache bench."""
    from repro.workloads import WEBSITES, generate_website_program

    return [
        generate_website_program(
            name,
            num_functions,
            polymorphic_fraction,
            # Explicit seed: the generator's default derives from
            # hash(name), which PYTHONHASHSEED randomizes per process.
            seed=sum(ord(char) for char in name),
        )
        for name, num_functions, polymorphic_fraction in WEBSITES
    ]


def measure_warm_cache(repeats=3, config=FULL_SPEC, backend="closure", cache_root=None):
    """Wall-clock win of a warm persistent code cache over a cold one.

    The workload is the web (page-load) generator — the scenario a
    startup cache exists for: many functions, compiled once, same
    sources on every visit.  *Cold* passes start from a cleared cache
    directory (stores included in the timed region); *warm* passes
    reuse the artifacts the cold pass left behind (loads included).
    Both are best-of-``repeats``; the headline is ``cold_seconds /
    warm_seconds``.  Simulated cycles are asserted identical between
    cold and warm — the cache is a host-time optimization only.
    """
    from repro.cache import DiskCodeCache

    programs = _web_programs()
    root = cache_root
    cleanup = False
    if root is None:
        root = tempfile.mkdtemp(prefix="repro-warmcache-")
        cleanup = True
    try:

        def one_pass():
            cache = DiskCodeCache(root=root)
            cycles = 0
            start = time.perf_counter()
            for source in programs:
                engine = Engine(
                    config=config, executor_backend=backend, code_cache=cache
                )
                engine.run_source(source)
                cycles += engine.stats.total_cycles
            return time.perf_counter() - start, cycles, cache

        cold_best = None
        cold_cycles = None
        for _ in range(repeats):
            shutil.rmtree(os.path.join(root, "code"), ignore_errors=True)
            elapsed, cycles, _cache = one_pass()
            cold_cycles = cycles
            if cold_best is None or elapsed < cold_best:
                cold_best = elapsed
        warm_best = None
        warm_cycles = None
        disk_hits = 0
        for _ in range(repeats):
            elapsed, cycles, cache = one_pass()
            warm_cycles = cycles
            disk_hits = cache.hits
            if warm_best is None or elapsed < warm_best:
                warm_best = elapsed
        return {
            "workload": "web (page-load generator, %d programs)" % len(programs),
            "backend": backend,
            "cold_seconds": round(cold_best, 4),
            "warm_seconds": round(warm_best, 4),
            "speedup": round(cold_best / warm_best, 4),
            "disk_hits": disk_hits,
            "cycles_identical": cold_cycles == warm_cycles,
        }
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)


#: The fleet profile measured by the serving section: repeat-heavy by
#: construction (power-law tenants and programs), big enough for the
#: percentiles to be meaningful, small enough for CI.
SERVING_PROFILE = {
    "tenants": 6,
    "requests": 160,
    "programs": 5,
    "seed": 20130223,
    "functions_per_program": 8,
}

#: Per-tenant admission capacity for the SLO profile.  The schedule is
#: deliberately bursty (arrival gaps far below service time), so the
#: hot tenant's lane legitimately queues deep; the gate then asserts
#: *zero* rejections at this depth rather than tuning the burst away.
SERVING_QUEUE_CAPACITY = 256


def measure_serving(profile_kwargs=None, shards=4, cache_root=None):
    """The serving-tier SLO section: latency percentiles + warm shards.

    Runs the same power-law fleet schedule twice against one shared
    sharded artifact store: a *cold* pass that populates it, then a
    *warm* pass with fresh isolates that should serve almost entirely
    from it.  All latencies are model cycles on the per-tenant
    admission lanes — deterministic and machine-independent, so the
    p50/p99 gate exactly, like the background and deoptless sections.
    The warm pass's shard hit rate carries the acceptance floor
    (``SERVING_WARM_HIT_FLOOR``); cold and warm passes must agree on
    every latency (the artifact store is a host-time optimization
    only).
    """
    from repro.serving.fleet import FleetProfile, run_fleet

    kwargs = dict(SERVING_PROFILE)
    kwargs.update(profile_kwargs or {})
    profile = FleetProfile(**kwargs)
    root = cache_root
    cleanup = False
    if root is None:
        root = tempfile.mkdtemp(prefix="repro-serving-")
        cleanup = True
    try:
        shutil.rmtree(root, ignore_errors=True)
        cold = run_fleet(
            profile,
            cache_mode="shared",
            cache_root=root,
            shards=shards,
            queue_capacity=SERVING_QUEUE_CAPACITY,
        )
        warm = run_fleet(
            profile,
            cache_mode="shared",
            cache_root=root,
            shards=shards,
            queue_capacity=SERVING_QUEUE_CAPACITY,
        )
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)
    return {
        "profile": profile.as_dict(),
        "shards": shards,
        "requests": warm["requests"],
        "rejected": warm["rejected"],
        "batches": warm["batches"],
        "tenants": warm["tenants"],
        "p50_latency_cycles": warm["p50_latency_cycles"],
        "p99_latency_cycles": warm["p99_latency_cycles"],
        "total_latency_cycles": warm["total_latency_cycles"],
        "cold_hit_rate": round(cold["warm_hit_rate"], 5),
        "warm_hit_rate": round(warm["warm_hit_rate"], 5),
        "cycles_identical": cold["total_latency_cycles"]
        == warm["total_latency_cycles"],
    }


#: The independently runnable parts of the wall-clock protocol.
ALL_SECTIONS = ("backends", "background", "warm-cache", "deoptless", "serving")

#: Minimum acceptable warm-over-cold speedup of the persistent code
#: cache on the web workload (docs/PERF.md); the gate's hard floor.
WARM_CACHE_FLOOR = 1.3

#: Acceptance ceilings for the deoptless dispatch table on the churn
#: suite (docs/DEOPTLESS.md): total model cycles with the table on
#: must be <= 80% of the §4 policy's, and binary discards <= 50%.
DEOPTLESS_CYCLE_CEILING = 0.8
DEOPTLESS_DISCARD_CEILING = 0.5

#: Minimum acceptable warm-pass shard hit rate on the serving
#: section's repeat-heavy fleet profile (docs/SERVING.md): after a
#: cold pass populated the shared store, at least 90% of the warm
#: pass's cacheable compiles must be served from it.
SERVING_WARM_HIT_FLOOR = 0.9


def run_wallclock(
    suites=None,
    repeats=3,
    config=FULL_SPEC,
    backends=DEFAULT_BACKENDS,
    sections=ALL_SECTIONS,
):
    """Run the wall-clock comparison; returns the results dict.

    ``suites`` maps suite name to benchmark list (default: all three
    paper suites).  The returned dict is what ``BENCH_wallclock.json``
    holds::

        {"protocol": {...},
         "suites": {name: {"<backend>_seconds": s, ...,
                           "speedup": simple/closure,
                           "sim_instructions": work,
                           "<backend>_sips": work/s}},
         "geomean_speedup": g,
         "background_compile": {...},   # model cycles, sync vs lane
         "warm_cache": {...},           # cold vs warm disk cache
         "deoptless": {...},            # model cycles, §4 vs table
         "serving": {...}}              # fleet latency SLO + warm shards

    ``sections`` selects which parts run (``tools/perf_gate.py
    --sections``): ``backends`` is the executor comparison,
    ``background`` the lane cycle ratios, ``warm-cache`` the disk
    cache cold/warm timing, ``deoptless`` the churn-suite cycle
    comparison of the §4 discard policy against the specialization
    dispatch table, ``serving`` the multi-tenant fleet latency and
    warm-shard hit-rate SLO (docs/SERVING.md).  Skipped sections are
    absent from the result and skipped by :func:`check_gate`.
    """
    if suites is None:
        suites = ALL_SUITES
    results = {
        "protocol": {
            "config": config.name,
            "repeats": repeats,
            "backends": list(backends),
            "metric": "best-of-repeats wall-clock seconds per full suite pass",
        },
        "suites": {},
    }
    if "backends" in sections:
        speedups = []
        whole_speedups = []
        for name, suite in suites.items():
            row = {}
            for backend in backends:
                measured = measure_suite(suite, backend, config=config, repeats=repeats)
                row["%s_seconds" % backend] = round(measured["seconds"], 4)
                work = measured["native_instructions"] + measured["interp_ops"]
                row["sim_instructions"] = work
                row["%s_sips" % backend] = int(work / measured["seconds"])
            if "simple" in backends and "closure" in backends:
                row["speedup"] = round(
                    row["simple_seconds"] / row["closure_seconds"], 4
                )
                speedups.append(row["speedup"])
            if "closure" in backends and "whole" in backends:
                row["whole_speedup"] = round(
                    row["closure_seconds"] / row["whole_seconds"], 4
                )
                whole_speedups.append(row["whole_speedup"])
            results["suites"][name] = row
        if speedups:
            results["geomean_speedup"] = round(
                math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 4
            )
        if whole_speedups:
            results["geomean_whole_speedup"] = round(
                math.exp(
                    sum(math.log(s) for s in whole_speedups) / len(whole_speedups)
                ),
                4,
            )
    if "background" in sections:
        results["background_compile"] = measure_background_cycles(suites, config=config)
    if "warm-cache" in sections:
        results["warm_cache"] = measure_warm_cache(repeats=repeats, config=config)
    if "deoptless" in sections:
        results["deoptless"] = measure_deoptless_cycles(
            config=config, backends=backends
        )
    if "serving" in sections:
        results["serving"] = measure_serving()
    return results


def format_wallclock(results):
    """Human-readable table for one :func:`run_wallclock` result."""
    lines = []
    if results.get("suites"):
        lines.append(
            "-- executor backend wall clock (config: %s, best of %d) --"
            % (results["protocol"]["config"], results["protocol"]["repeats"])
        )
        lines.append(
            "%-12s %10s %10s %9s %9s %9s"
            % ("suite", "simple s", "closure s", "whole s", "clo/simp", "whole/clo")
        )
        for name, row in results["suites"].items():
            lines.append(
                "%-12s %10.2f %10.2f %9s %8.2fx %8s"
                % (
                    name,
                    row["simple_seconds"],
                    row["closure_seconds"],
                    (
                        "%.2f" % row["whole_seconds"]
                        if "whole_seconds" in row
                        else "-"
                    ),
                    row.get("speedup", float("nan")),
                    (
                        "%.2fx" % row["whole_speedup"]
                        if "whole_speedup" in row
                        else "-"
                    ),
                )
            )
        if "geomean_speedup" in results:
            lines.append("geomean closure/simple: %.2fx" % results["geomean_speedup"])
        if "geomean_whole_speedup" in results:
            lines.append(
                "geomean whole/closure: %.2fx" % results["geomean_whole_speedup"]
            )
    background = results.get("background_compile")
    if background:
        lines.append("")
        lines.append("-- background compilation lane (model cycles, sync vs lane) --")
        lines.append(
            "%-12s %14s %14s %12s"
            % ("suite", "sync cycles", "lane cycles", "cycle ratio")
        )
        for name, row in background["suites"].items():
            lines.append(
                "%-12s %14s %14s %12.5f"
                % (
                    name,
                    "{:,}".format(row["sync_cycles"]),
                    "{:,}".format(row["background_cycles"]),
                    row["cycle_ratio"],
                )
            )
        if "geomean_cycle_ratio" in background:
            lines.append(
                "geomean cycle ratio (background / sync): %.5f"
                % background["geomean_cycle_ratio"]
            )
    warm = results.get("warm_cache")
    if warm:
        lines.append("")
        lines.append("-- persistent code cache (%s) --" % warm["workload"])
        lines.append(
            "cold %.2fs -> warm %.2fs: %.2fx (%d disk hits, cycles identical: %s)"
            % (
                warm["cold_seconds"],
                warm["warm_seconds"],
                warm["speedup"],
                warm["disk_hits"],
                warm["cycles_identical"],
            )
        )
    deoptless = results.get("deoptless")
    if deoptless:
        lines.append("")
        lines.append(
            "-- deoptless dispatch table (churn suite, model cycles, off vs on) --"
        )
        lines.append(
            "%-22s %14s %14s %12s"
            % ("benchmark", "off cycles", "on cycles", "cycle ratio")
        )
        for name, row in deoptless["benchmarks"].items():
            lines.append(
                "%-22s %14s %14s %12.5f"
                % (
                    name,
                    "{:,}".format(row["off_cycles"]),
                    "{:,}".format(row["on_cycles"]),
                    row["cycle_ratio"],
                )
            )
        lines.append(
            "suite cycles %s -> %s (ratio %.5f); discards %d -> %d; "
            "%d reentries, %d misses, %d generalized; outputs identical: %s; "
            "backends identical: %s"
            % (
                "{:,}".format(deoptless["off_cycles"]),
                "{:,}".format(deoptless["on_cycles"]),
                deoptless["cycle_ratio"],
                deoptless["off_invalidations"],
                deoptless["on_invalidations"],
                deoptless["deoptless_reentries"],
                deoptless["deoptless_misses"],
                deoptless["deoptless_generalized_compiles"],
                deoptless["outputs_identical"],
                deoptless["backends_identical"],
            )
        )
    serving = results.get("serving")
    if serving:
        profile = serving["profile"]
        lines.append("")
        lines.append(
            "-- serving tier (fleet of %d tenants, %d requests, model cycles) --"
            % (profile["tenants"], profile["requests"])
        )
        lines.append(
            "latency p50 %s / p99 %s cycles; warm shard hit rate %.3f "
            "(cold %.3f); %d batches, %d rejected; "
            "cycles identical cold/warm: %s"
            % (
                "{:,}".format(serving["p50_latency_cycles"]),
                "{:,}".format(serving["p99_latency_cycles"]),
                serving["warm_hit_rate"],
                serving["cold_hit_rate"],
                serving["batches"],
                serving["rejected"],
                serving["cycles_identical"],
            )
        )
    return "\n".join(lines)


def write_wallclock_json(results, path):
    """Write ``results`` as the checked-in ``BENCH_wallclock.json``."""
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_wallclock_json(path):
    """Load a results file written by :func:`write_wallclock_json`."""
    with open(path) as handle:
        return json.load(handle)


def check_gate(current, baseline, tolerance=0.15):
    """Compare a fresh run against the checked-in baseline.

    Returns a list of failure strings, empty when the gate passes.
    Only *speedup ratios* are compared — they are machine-independent,
    unlike seconds — and a suite fails when its ratio fell more than
    ``tolerance`` (fractional) below the baseline's.  Suites added
    since the baseline pass trivially; suites missing from the current
    run fail loudly.  A section absent from ``current`` entirely (not
    selected via ``run_wallclock(sections=...)``) is skipped, so the
    gate composes with partial runs like ``perf_gate.py --sections
    warm-cache``.
    """
    failures = []
    if current.get("suites"):
        for name, base_row in baseline.get("suites", {}).items():
            base_speedup = base_row.get("speedup")
            if base_speedup is None:
                continue
            current_row = current.get("suites", {}).get(name)
            if current_row is None or "speedup" not in current_row:
                failures.append("suite %s: present in baseline but not measured" % name)
                continue
            floor = base_speedup * (1.0 - tolerance)
            if current_row["speedup"] < floor:
                failures.append(
                    "suite %s: speedup %.2fx fell below %.2fx "
                    "(baseline %.2fx - %d%% tolerance)"
                    % (
                        name,
                        current_row["speedup"],
                        floor,
                        base_speedup,
                        round(tolerance * 100),
                    )
                )
        for name, base_row in baseline.get("suites", {}).items():
            base_whole = base_row.get("whole_speedup")
            if base_whole is None:
                continue
            current_row = current.get("suites", {}).get(name)
            if current_row is None or "whole_speedup" not in current_row:
                failures.append(
                    "suite %s: whole backend present in baseline but not measured"
                    % name
                )
                continue
            floor = base_whole * (1.0 - tolerance)
            if current_row["whole_speedup"] < floor:
                failures.append(
                    "suite %s: whole/closure speedup %.2fx fell below %.2fx "
                    "(baseline %.2fx - %d%% tolerance)"
                    % (
                        name,
                        current_row["whole_speedup"],
                        floor,
                        base_whole,
                        round(tolerance * 100),
                    )
                )
        base_geo = baseline.get("geomean_speedup")
        cur_geo = current.get("geomean_speedup")
        if base_geo is not None and cur_geo is not None:
            floor = base_geo * (1.0 - tolerance)
            if cur_geo < floor:
                failures.append(
                    "geomean: speedup %.2fx fell below %.2fx (baseline %.2fx)"
                    % (cur_geo, floor, base_geo)
                )
        base_geo = baseline.get("geomean_whole_speedup")
        cur_geo = current.get("geomean_whole_speedup")
        if base_geo is not None and cur_geo is not None:
            floor = base_geo * (1.0 - tolerance)
            if cur_geo < floor:
                failures.append(
                    "geomean: whole/closure speedup %.2fx fell below %.2fx "
                    "(baseline %.2fx)" % (cur_geo, floor, base_geo)
                )
    # Background-lane cycle ratios are model cycles — deterministic and
    # machine-independent — so they gate with a tiny epsilon (benchmark
    # additions shift the geomean slightly), not the wall-clock tolerance.
    base_ratio = baseline.get("background_compile", {}).get("geomean_cycle_ratio")
    cur_ratio = current.get("background_compile", {}).get("geomean_cycle_ratio")
    if "background_compile" in current and base_ratio is not None and cur_ratio is not None:
        ceiling = base_ratio + 0.002
        if cur_ratio > ceiling:
            failures.append(
                "background lane: cycle ratio %.5f rose above %.5f (baseline %.5f)"
                % (cur_ratio, ceiling, base_ratio)
            )
    base_warm = baseline.get("warm_cache", {}).get("speedup")
    cur_warm = current.get("warm_cache", {}).get("speedup")
    if "warm_cache" in current and base_warm is not None:
        if cur_warm is None:
            failures.append("warm cache: present in baseline but not measured")
        else:
            # Cold-run seconds swing with host cache state, so a purely
            # baseline-relative floor flakes.  Gate on the smaller of
            # the relative floor and the documented acceptance floor
            # (WARM_CACHE_FLOOR): noise above the floor passes, while a
            # broken cache (speedup ~1.0x) always fails.
            floor = min(base_warm * (1.0 - tolerance), WARM_CACHE_FLOOR)
            if cur_warm < floor:
                failures.append(
                    "warm cache: speedup %.2fx fell below %.2fx (baseline %.2fx)"
                    % (cur_warm, floor, base_warm)
                )
            if not current.get("warm_cache", {}).get("cycles_identical", True):
                failures.append(
                    "warm cache: simulated cycles differ between cold and warm runs"
                )
    # The deoptless section is model cycles like the background lane:
    # deterministic, so the acceptance ceilings are hard floors, and
    # the baseline comparison uses the same tiny epsilon.
    deoptless = current.get("deoptless")
    if deoptless is not None:
        if deoptless["cycle_ratio"] > DEOPTLESS_CYCLE_CEILING:
            failures.append(
                "deoptless: churn cycle ratio %.5f above the %.2f acceptance ceiling"
                % (deoptless["cycle_ratio"], DEOPTLESS_CYCLE_CEILING)
            )
        if deoptless["invalidation_ratio"] > DEOPTLESS_DISCARD_CEILING:
            failures.append(
                "deoptless: churn discard ratio %.5f above the %.2f acceptance ceiling"
                % (deoptless["invalidation_ratio"], DEOPTLESS_DISCARD_CEILING)
            )
        if not deoptless.get("outputs_identical", True):
            failures.append(
                "deoptless: guest output differs between table off and on"
            )
        if not deoptless.get("backends_identical", True):
            failures.append(
                "deoptless: executor backends disagree with the table on"
            )
        base_ratio = baseline.get("deoptless", {}).get("cycle_ratio")
        if base_ratio is not None and deoptless["cycle_ratio"] > base_ratio + 0.002:
            failures.append(
                "deoptless: churn cycle ratio %.5f rose above %.5f (baseline %.5f)"
                % (deoptless["cycle_ratio"], base_ratio + 0.002, base_ratio)
            )
    # The serving section is model cycles throughout: the latency
    # percentiles gate exactly against the baseline, and the warm-shard
    # hit rate and isolation invariants carry hard acceptance floors.
    serving = current.get("serving")
    if serving is not None:
        if serving["warm_hit_rate"] < SERVING_WARM_HIT_FLOOR:
            failures.append(
                "serving: warm shard hit rate %.3f below the %.2f acceptance floor"
                % (serving["warm_hit_rate"], SERVING_WARM_HIT_FLOOR)
            )
        if not serving.get("cycles_identical", True):
            failures.append(
                "serving: request cycles differ between cold and warm passes"
            )
        if serving.get("rejected", 0):
            failures.append(
                "serving: %d requests rejected on the SLO profile"
                % serving["rejected"]
            )
        base_serving = baseline.get("serving", {})
        for metric in ("p50_latency_cycles", "p99_latency_cycles"):
            base_value = base_serving.get(metric)
            if base_value is not None and serving[metric] > base_value:
                failures.append(
                    "serving: %s %s rose above the baseline's %s"
                    % (
                        metric,
                        "{:,}".format(serving[metric]),
                        "{:,}".format(base_value),
                    )
                )
    return failures
