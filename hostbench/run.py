#!/usr/bin/env python3
"""The host-clock benchmark: one command, every metric by name and unit.

    python3 hostbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --report hostbench/out/results.json
    python3 hostbench/run.py --compare A.json B.json
    python3 hostbench/run.py --regen-expected

The first form is what ``BENCHMARK.json`` names: one workload, measured for
``--seconds``, and as the last line of standard output one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics of one extra traced pass with
``--trace 1``.  ``--report`` runs all four workloads with their lifetimes
interleaved, then the traced passes and the ``layers_by_backend`` side table,
and writes everything to one results file.  See README.md beside this file.

This process only orchestrates: every measurement happens in a child
(``lifetime.py``) with a hermetic environment and a private scratch directory
under ``hostbench/out/``, removed on exit.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if __name__ == "__main__":
    # Not the script directory: a bare ``trace`` there would shadow the stdlib's.
    sys.path[0] = ROOT

from hostbench import hostspeed, trace, workloads  # noqa: E402

clock = time.perf_counter

OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")
LIFETIME_TIMEOUT = 170.0
#: Set-up is repeated this many times per run at least (its best is reported).
MIN_LIFETIMES = 3
SMOKE = {"suites-steady": 3, "pageload-cold": 3, "pageload-warm": 3, "serve-mixed": 60}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Printed and stored beside the gated metrics, but not named in BENCHMARK.json:
#: a percentile is one operation's best, and on this host that repeats no
#: better than 15-25 % between runs (README: measured noise).
UNGATED = (
    ("lat_p50_ms", "ms", "lower"),
    ("lat_p99_ms", "ms", "lower"),
    ("host_speed", "ratio", "higher"),
    ("pass_unscaled_s", "s", "lower"),
)

#: span name -> metric reporting its self seconds
SPAN_SECONDS = (
    ("jsvm.parse", "jsvm.parse_s"),
    ("jsvm.bytecompile", "jsvm.bytecompile_s"),
    ("jsvm.interp", "jsvm.interp_s"),
    ("opts.loop_inversion", "opts.loop_inversion_s"),
    ("mir.build", "mir.build_s"),
    ("mir.specialize_types", "mir.specialize_types_s"),
    ("opts.optimize", "opts.optimize_s"),
    ("opts.inlining", "opts.inlining_s"),
    ("opts.gvn", "opts.gvn_s"),
    ("opts.constprop", "opts.constprop_s"),
    ("opts.dce", "opts.dce_s"),
    ("opts.licm", "opts.licm_s"),
    ("opts.bounds_check", "opts.bounds_check_s"),
    ("lir.lower", "lir.lower_s"),
    ("lir.regalloc", "lir.regalloc_s"),
    ("lir.assemble", "lir.assemble_s"),
    ("lir.hostgen", "lir.hostgen_s"),
    ("lir.exec", "lir.exec_s"),
    ("engine.policy", "engine.policy_s"),
    ("engine.init", "engine.init_s"),
    ("cache.key", "cache.key_s"),
    ("cache.load", "cache.load_s"),
    ("cache.store", "cache.store_s"),
)

PER_LAYER = tuple((metric, "s", "lower") for _span, metric in SPAN_SECONDS) + (
    ("jsvm.source_bytes", "bytes", "lower"),
    ("jsvm.interp_ops", "count", "lower"),
    ("mir.builds", "count", "lower"),
    ("mir.instructions_in", "count", "lower"),
    ("opts.instructions_out", "count", "lower"),
    ("opts.work_units", "count", "lower"),
    ("lir.native_instructions_emitted", "count", "lower"),
    ("lir.spills", "count", "lower"),
    ("lir.hostgen_ms_per_binary", "ms", "lower"),
    ("lir.native_calls", "count", "lower"),
    ("lir.sim_instructions", "count", "lower"),
    ("lir.sim_mips", "M/s", "higher"),
    ("engine.compiles", "count", "lower"),
    ("engine.bailouts", "count", "lower"),
    ("engine.invalidations", "count", "lower"),
    ("engine.compile_share", "ratio", "lower"),
    ("engine.model_cycles", "cycles", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.stores", "count", "lower"),
    ("cache.uncacheable", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.bytes_on_disk", "bytes", "lower"),
    ("serving.direct_ms_p50", "ms", "lower"),
    ("serving.pool_ms_p50", "ms", "lower"),
    ("serving.socket_ms_p50", "ms", "lower"),
    ("serving.socket_ms_p99", "ms", "lower"),
    ("serving.ipc_overhead_ms", "ms", "lower"),
    ("serving.frontend_overhead_ms", "ms", "lower"),
    ("serving.engine_share", "ratio", "higher"),
    ("serving.cold_ms_p50", "ms", "lower"),
    ("serving.warm_ms_p50", "ms", "lower"),
    ("serving.cold_requests", "count", "lower"),
    ("serving.rejected", "count", "lower"),
    ("serving.response_bytes_p50", "bytes", "lower"),
    ("telemetry.metrics_overhead_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)

#: per-layer metric -> the field of ``workloads.OBSERVED`` it totals
LEDGER_COUNTS = (
    ("jsvm.interp_ops", "interp_ops"),
    ("lir.sim_instructions", "sim_instructions"),
    ("engine.compiles", "compiles"),
    ("engine.bailouts", "bailouts"),
    ("engine.invalidations", "invalidations"),
    ("engine.model_cycles", "model_cycles"),
    ("cache.hits", "cache_hits"),
    ("cache.misses", "cache_misses"),
    ("cache.stores", "cache_stores"),
    ("cache.uncacheable", "cache_uncacheable"),
)

#: Metrics that must repeat exactly between two runs of one seed (--compare).
EXACT_UNITS = ("count", "bytes", "cycles")


class Unsound(Exception):
    """A lifetime crashed, timed out, or printed no result."""


# -- children ----------------------------------------------------------------------


def child_environment():
    """The hermetic environment every child (and the server it spawns) runs in."""
    environment = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_EXECUTOR", "REPRO_CACHE_DIR", "REPRO_BENCH_FAST")
    }
    environment["PYTHONHASHSEED"] = "0"
    environment["PYTHONDONTWRITEBYTECODE"] = "1"
    environment["PYTHONPATH"] = os.path.join(ROOT, "src")
    return environment


class Scratch(object):
    """``hostbench/out/tmp-<pid>/``: one numbered directory per lifetime."""

    def __init__(self):
        self.root = os.path.join(OUT, "tmp-%d" % os.getpid())
        self.count = 0

    def __enter__(self):
        os.makedirs(self.root, exist_ok=True)
        return self

    def __exit__(self, *_exc):
        shutil.rmtree(self.root, ignore_errors=True)

    def fresh(self):
        self.count += 1
        directory = os.path.join(self.root, "%03d" % self.count)
        os.makedirs(directory)
        return directory


def run_child(scratch, spec):
    """Run ``lifetime.py`` on ``spec``; returns its result with ``wall_s`` added."""
    directory = scratch.fresh()
    spec = dict(spec, scratch=directory)
    path = os.path.join(directory, "spec.json")
    begin = clock()
    spec["started"] = begin
    with open(path, "w") as handle:
        json.dump(spec, handle)
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "lifetime.py"), path],
        stdout=subprocess.PIPE,
        env=child_environment(),
        cwd=ROOT,
        # Its own process group, so the server it may have spawned dies with it.
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=LIFETIME_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise Unsound("%s lifetime exceeded %ds" % (spec["workload"], LIFETIME_TIMEOUT))
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group has already ended
        process.wait()
        shutil.rmtree(directory, ignore_errors=True)
    if process.returncode != 0:
        raise Unsound("%s lifetime exited with %d" % (spec["workload"], process.returncode))
    result = json.loads(output.decode("utf-8").strip().rsplit("\n", 1)[-1])
    result["wall_s"] = clock() - begin
    return result


def reference_digests(scratch, workload, seed):
    spec = {"workload": workload, "seed": seed, "reference": True}
    return run_child(scratch, spec)["digests"]


def resolve_expected(scratch, workload, seed):
    """Reference digests: checked in, or computed now by the plain interpreter."""
    with open(EXPECTED) as handle:
        known = json.load(handle)
    key = workloads.expected_key(workload, seed)
    if key not in known:
        known[key] = reference_digests(scratch, workload, seed)
    return known[key]


def regen_expected(scratch, seed):
    table = {}
    for workload in workloads.WORKLOADS:
        key = workloads.expected_key(workload, seed)
        if key not in table:
            table[key] = reference_digests(scratch, workload, seed)
    with open(EXPECTED, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- measuring ---------------------------------------------------------------------


class Plan(object):
    """What every lifetime of one workload in one run shares."""

    def __init__(self, scratch, workload, seed, smoke=False, backend=None, expected=None):
        self.scratch = scratch
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.backend = backend
        self.expected = expected or resolve_expected(scratch, workload, seed)

    def spec(self, **extra):
        spec = {
            "workload": self.workload,
            "seed": self.seed,
            "expected": self.expected,
            "backend": self.backend,
            "limit": SMOKE[self.workload] if self.smoke else None,
            "max_passes": 1 if self.smoke else 1000,
        }
        spec.update(extra)
        return spec

    def lifetime(self, budget):
        return run_child(self.scratch, self.spec(budget_s=budget))

    def traced(self):
        """One lifetime whose traced pass sits between the passes it is compared with."""
        os.makedirs(OUT, exist_ok=True)
        suffix = "" if self.backend is None else "-" + self.backend
        if self.backend is not None:
            # First in its process: the whole backend memoises host compile()
            # per source text, so only a process's first pass pays for it.
            sequence = ["traced", "plain"]
        elif self.smoke:
            sequence = ["plain", "metrics", "traced"]
        else:
            sequence = ["plain", "metrics", "traced", "plain", "metrics"]
        return run_child(
            self.scratch,
            self.spec(
                sequence=sequence,
                trace_path=os.path.join(OUT, "trace-%s%s.json" % (self.workload, suffix)),
            ),
        )


def measure(plan, seconds):
    """Lifetimes of ``plan`` until ``seconds`` of its own time are used; a generator.

    The window holds the lifetimes whole — set-up is a measured quantity too.
    A batch lifetime is told what is left of the window, split over the
    lifetimes still owed, and fits its passes into that; a serving lifetime is
    always one pass.  Another lifetime starts while half of one still fits.
    """
    spent = 0.0
    longest = 0.0
    count = 0
    while count < (1 if plan.smoke else MIN_LIFETIMES) or (
        not plan.smoke and spent + longest / 2 <= seconds
    ):
        owed = max(1, MIN_LIFETIMES - count)
        lifetime = plan.lifetime((seconds - spent) / owed)
        spent += lifetime["wall_s"]
        longest = max(longest, lifetime["wall_s"])
        count += 1
        yield lifetime


def percentile(values, fraction):
    """Nearest-rank order statistic (the serving tier's own convention)."""
    ordered = sorted(values)
    return ordered[min(int(len(ordered) * fraction), len(ordered) - 1)]


def spread(values):
    """Distance between the quartiles as a share of the median (None under 2 values)."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def best_operations(passes):
    """Per-operation best seconds over ``passes`` (interference only adds time)."""
    return [min(column) for column in zip(*(sample["op_s"] for sample in passes))]


def end_to_end(workload, lifetimes):
    """The gated metrics plus, per metric, the per-pass samples behind them."""
    passes = [sample for lifetime in lifetimes for sample in lifetime["passes"]]
    operations = len(passes[0]["op_s"])
    samples = {
        "setup_s": [lifetime["setup_s"] for lifetime in lifetimes],
        "pass_s": [sample["wall_s"] for sample in passes],
        "ops_per_s": [operations / sample["wall_s"] for sample in passes],
        "lat_p50_ms": [1000 * percentile(sample["op_s"], 0.50) for sample in passes],
        "lat_p99_ms": [1000 * percentile(sample["op_s"], 0.99) for sample in passes],
        "peak_rss_mb": [lifetime["peak_rss_mb"] for lifetime in lifetimes],
    }
    if workload == "serve-mixed":
        # Requests of one lifetime share a server: a pass cannot be recomposed
        # from other lifetimes' requests, so the best whole lifetime stands.
        pass_s = min(samples["pass_s"])
        p50 = min(samples["lat_p50_ms"])
        p99 = min(samples["lat_p99_ms"])
    else:
        # Operations are independent (a fresh engine each), so the best pass
        # is every operation at its best.
        best = best_operations(passes)
        pass_s = sum(best)
        p50 = 1000 * percentile(best, 0.50)
        p99 = 1000 * percentile(best, 0.99)
    # Interference only adds time, so every timing is a best-of; and a phase
    # that slows the whole run slows the reference kernel with it.
    speed = hostspeed.speed([s for lifetime in lifetimes for s in lifetime["kernel_s"]])
    values = {
        "setup_s": min(samples["setup_s"]) * speed,
        "pass_s": pass_s * speed,
        "ops_per_s": operations / (pass_s * speed),
        "lat_p50_ms": p50 * speed,
        "lat_p99_ms": p99 * speed,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "host_speed": speed,
        "pass_unscaled_s": pass_s,
    }
    return values, samples


def soundness(lifetimes):
    """``(attempted, failed, mismatches)`` over lifetimes, observables compared."""
    mismatches = [text for lifetime in lifetimes for text in lifetime["mismatches"]]
    for index, lifetime in enumerate(lifetimes[1:], 1):
        if lifetime.get("observed") != lifetimes[0].get("observed"):
            mismatches.append("lifetime %d observed something lifetime 0 did not" % index)
    attempted = sum(lifetime["attempted"] for lifetime in lifetimes)
    failed = sum(lifetime["failed"] for lifetime in lifetimes)
    return attempted, failed, mismatches


def per_layer(workload, lifetime):
    """Every per-layer metric from one traced lifetime; 0 where a layer is not crossed."""
    traced = lifetime["traced"]
    layers = traced["layers"]
    counts = traced["counts"]
    values = dict.fromkeys((name for name, _unit, _better in PER_LAYER), 0)

    def self_seconds(span):
        return layers.get(span, {}).get("self_s", 0.0)

    def spans(span):
        return layers.get(span, {}).get("spans", 0)

    for span, metric in SPAN_SECONDS:
        values[metric] = self_seconds(span)
    for name in trace.COUNT_NAMES + ("cache.bytes_on_disk",):
        values[name] = counts.get(name, 0)

    if workload == "serve-mixed":
        direct = lifetime["direct"]
        totals = direct["totals"]
        totals["model_cycles"] = sum(row[1] for row in direct["observed"])
        untraced_s = direct["wall_s"]
        direct_ms = [1000 * seconds for seconds in direct["op_s"]]
        cold_ms = [ms for ms, cold in zip(direct_ms, direct["cold"]) if cold]
        warm_ms = [ms for ms, cold in zip(direct_ms, direct["cold"]) if not cold]
        pool_p50 = 1000 * percentile(lifetime["pool_s"], 0.5)
        socket_p50 = 1000 * percentile(lifetime["socket"]["op_s"], 0.5)
        direct_p50 = percentile(direct_ms, 0.5)
        values.update(
            {
                "serving.direct_ms_p50": direct_p50,
                "serving.pool_ms_p50": pool_p50,
                "serving.socket_ms_p50": socket_p50,
                "serving.socket_ms_p99": 1000 * percentile(lifetime["socket"]["op_s"], 0.99),
                "serving.ipc_overhead_ms": pool_p50 - direct_p50,
                "serving.frontend_overhead_ms": socket_p50 - pool_p50,
                "serving.engine_share": direct_p50 / socket_p50,
                "serving.cold_ms_p50": percentile(cold_ms, 0.5),
                "serving.warm_ms_p50": percentile(warm_ms, 0.5) if warm_ms else 0,
                "serving.cold_requests": len(cold_ms),
                "serving.rejected": direct["rejected"],
                "serving.response_bytes_p50": percentile(lifetime["socket"]["reply_bytes"], 0.5),
            }
        )
    else:
        totals = {
            field: sum(row[index] for row in lifetime["observed"])
            for index, field in enumerate(workloads.OBSERVED)
            if field != "digest"
        }
        untraced_s = sum(best_operations(lifetime["passes"]))
        if lifetime["metrics_passes"]:
            with_registry = sum(best_operations(lifetime["metrics_passes"]))
            values["telemetry.metrics_overhead_share"] = with_registry / untraced_s - 1

    for metric, field in LEDGER_COUNTS:
        values[metric] = totals[field]
    values["mir.builds"] = spans("mir.build")
    values["lir.native_calls"] = spans("lir.exec")
    if values["lir.exec_s"]:
        values["lir.sim_mips"] = totals["sim_instructions"] / values["lir.exec_s"] / 1e6
    if spans("lir.hostgen"):
        values["lir.hostgen_ms_per_binary"] = 1000 * values["lir.hostgen_s"] / spans("lir.hostgen")
    values["engine.compile_share"] = (
        sum(self_seconds(span) for span in trace.COMPILE_STAGES) / traced["wall_s"]
    )
    probes = totals["cache_hits"] + totals["cache_misses"]
    values["cache.hit_ratio"] = totals["cache_hits"] / probes if probes else 0
    attributed = sum(row["self_s"] for span, row in layers.items() if span != trace.ROOT)
    values["trace.attributed_share"] = attributed / traced["wall_s"]
    values["trace.overhead_share"] = traced["wall_s"] / untraced_s - 1
    values["trace.spans"] = traced["spans"]
    return values


def program_rows(lifetimes, expected):
    """One row per program: best seconds, model cycles, digest ok; plus the geomean."""
    passes = [sample for lifetime in lifetimes for sample in lifetime["passes"]]
    first = lifetimes[0]
    rows = [
        {
            "program": name,
            "seconds": seconds,
            "model_cycles": observed[1],
            "digest_ok": observed[0] == expected.get(name),
        }
        for name, seconds, observed in zip(
            first["operations"], best_operations(passes), first["observed"]
        )
    ]
    geomean = math.exp(sum(math.log(row["seconds"]) for row in rows) / len(rows))
    return rows, geomean


# -- reporting ---------------------------------------------------------------------


def as_metrics(values, table):
    return {name: {"value": values[name], "unit": unit} for name, unit, _better in table}


def print_metrics(title, values, table, samples=None):
    print(title)
    for name, unit, better in table:
        line = "  %-34s %14.6g %-6s (%s is better)" % (name, values[name], unit, better)
        own = (samples or {}).get(name)
        if own and len(own) > 1:
            quartiles = statistics.quantiles(own, n=4)
            line += "   samples: median %.6g, quartiles %.6g..%.6g, n=%d" % (
                statistics.median(own),
                quartiles[0],
                quartiles[2],
                len(own),
            )
        print(line)


def print_rows(rows, geomean):
    print("  %-40s %10s %14s  %s" % ("program", "seconds", "model cycles", "digest"))
    for row in rows:
        print(
            "  %-40s %10.4f %14d  %s"
            % (row["program"], row["seconds"], row["model_cycles"], "ok" if row["digest_ok"] else "WRONG")
        )
    print("  geometric mean of per-program seconds: %.4f" % geomean)


def environment(seed, backend):
    commit = "unknown"
    try:
        commit = (
            subprocess.check_output(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, stderr=subprocess.DEVNULL
            )
            .decode()
            .strip()
        )
    except (OSError, subprocess.CalledProcessError):
        pass  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "default_backend": backend,
    }


def run_workload(scratch, args):
    """Driver mode: one workload, one JSON result line."""
    plan = Plan(scratch, args.workload, args.seed, smoke=args.smoke)
    if args.trace:
        lifetimes = [plan.traced()]
        values = per_layer(args.workload, lifetimes[0])
        table, samples = PER_LAYER, None
        print("environment: %s" % json.dumps(environment(args.seed, lifetimes[0]["backend"])))
    else:
        lifetimes = list(measure(plan, args.seconds))
        values, samples = end_to_end(args.workload, lifetimes)
        table = END_TO_END
    attempted, failed, mismatches = soundness(lifetimes)
    title = "%s seed %d (%s, %d lifetimes)" % (
        args.workload,
        args.seed,
        "traced" if args.trace else "untraced",
        len(lifetimes),
    )
    print_metrics(title, values, table, samples)
    if not args.trace:
        print_metrics("not gated:", values, UNGATED, samples)
    if args.workload != "serve-mixed":
        print_rows(*program_rows(lifetimes, plan.expected))
    for text in mismatches:
        print("NOT DETERMINISTIC: " + text)
    print(
        json.dumps(
            {
                "correct": failed == 0 and not mismatches,
                "attempted": attempted,
                "failed": failed,
                "metrics": as_metrics(values, table),
            }
        )
    )
    return 1 if mismatches else 0


def run_report(scratch, args):
    """All four workloads, lifetimes interleaved; traced passes; the side table."""
    plans = {
        workload: Plan(scratch, workload, args.seed, smoke=args.smoke)
        for workload in workloads.WORKLOADS
    }
    lifetimes = {workload: [] for workload in plans}
    active = {workload: measure(plan, args.seconds) for workload, plan in plans.items()}
    while active:
        # Round-robin, so each workload's samples span the whole run.
        for workload in list(active):
            try:
                lifetimes[workload].append(next(active[workload]))
            except StopIteration:
                del active[workload]
    report = {"workloads": {}, "layers_by_backend": {}}
    unsound = False
    for workload, plan in plans.items():
        traced = plan.traced()
        values, samples = end_to_end(workload, lifetimes[workload])
        layers = per_layer(workload, traced)
        attempted, failed, mismatches = soundness(lifetimes[workload] + [traced])
        unsound = unsound or bool(mismatches)
        entry = {
            "end_to_end": as_metrics(values, END_TO_END),
            "ungated": as_metrics(values, UNGATED),
            "samples": samples,
            "per_layer": as_metrics(layers, PER_LAYER),
            "attempted": attempted,
            "failed": failed,
            "fail_share": failed / attempted,
            "mismatches": mismatches,
        }
        print_metrics("%s seed %d" % (workload, args.seed), values, END_TO_END + UNGATED, samples)
        print_metrics("%s per layer (one traced pass)" % workload, layers, PER_LAYER)
        if workload != "serve-mixed":
            rows, geomean = program_rows(lifetimes[workload], plan.expected)
            print_rows(rows, geomean)
            entry["programs"] = rows
            entry["geomean_program_s"] = geomean
        report["workloads"][workload] = entry
        report.setdefault("environment", environment(args.seed, traced["backend"]))
    for workload in ("suites-steady", "pageload-cold"):
        table = report["layers_by_backend"][workload] = {}
        for backend in ("closure", "whole"):
            plan = Plan(
                scratch, workload, args.seed, args.smoke, backend, plans[workload].expected
            )
            traced = plan.traced()
            layers = per_layer(workload, traced)
            table[backend] = {
                "lir.hostgen_s": layers["lir.hostgen_s"],
                "lir.exec_s": layers["lir.exec_s"],
                "traced_first_pass_s": traced["traced"]["wall_s"],
                "plain_second_pass_s": traced["passes"][0]["wall_s"],
            }
            unsound = unsound or bool(soundness([traced])[2])
            print("layers_by_backend %s %s: %s" % (workload, backend, json.dumps(table[backend])))
    os.makedirs(os.path.dirname(os.path.abspath(args.report)), exist_ok=True)
    with open(args.report, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("results written to %s" % args.report)
    return 1 if unsound else 0


def compare(first_path, second_path):
    """Each (metric, workload) delta of B against A, judged against its bound."""
    with open(first_path) as handle:
        first = json.load(handle)
    with open(second_path) as handle:
        second = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {entry["name"]: entry for entry in json.load(handle)["end_to_end"]}
    status = 0
    print("%-16s %-14s %12s %12s %8s %7s  %s" % ("workload", "metric", "A", "B", "worse", "bound", "verdict"))
    for workload in workloads.WORKLOADS:
        one = first["workloads"][workload]
        two = second["workloads"][workload]
        for name, unit, better in END_TO_END:
            a = one["end_to_end"][name]["value"]
            b = two["end_to_end"][name]["value"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            bound = bounds[name]["bound"]
            noise = max(spread(run["samples"][name]) or 0.0 for run in (one, two))
            if noise > bound:
                verdict = "unresolved (pass spread %.1f%% exceeds the bound)" % (100 * noise)
            elif worse > bound:
                verdict = "REGRESSED"
                status = 1
            else:
                verdict = "within bound"
            print(
                "%-16s %-14s %12.6g %12.6g %+7.1f%% %6.0f%%  %s"
                % (workload, name, a, b, 100 * worse, 100 * bound, verdict)
            )
        for name, unit, _better in PER_LAYER:
            a = one["per_layer"][name]["value"]
            b = two["per_layer"][name]["value"]
            if unit in EXACT_UNITS and a != b:
                print("%-16s %-34s %s -> %s  DIFFERS (a count must repeat exactly)" % (workload, name, a, b))
                status = 1
        if one["fail_share"] or two["fail_share"]:
            print("%-16s fail_share %g -> %g  FAILED OPERATIONS" % (workload, one["fail_share"], two["fail_share"]))
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short pass of a few operations")
    parser.add_argument("--report", metavar="PATH", help="run everything; write one results file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        with Scratch() as scratch:
            if args.regen_expected:
                return regen_expected(scratch, args.seed)
            if args.workload:
                return run_workload(scratch, args)
            if args.report:
                return run_report(scratch, args)
    except Unsound as error:
        print("hostbench: %s" % error, file=sys.stderr)
        return 2
    parser.error("one of --workload, --report, --compare or --regen-expected is required")


if __name__ == "__main__":
    raise SystemExit(main())
