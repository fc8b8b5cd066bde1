"""Regenerate EXPERIMENTS.md: paper-versus-measured for every artefact.

Runs the complete evaluation (the same computations as the bench
targets) and writes the results table to ../EXPERIMENTS.md.

    python benchmarks/generate_experiments.py
"""

import io
import os
import sys

from repro.bench.figures import (
    code_size_study,
    parameter_types,
    suite_histograms,
    web_histograms,
)
from repro.bench.harness import format_figure9, run_suite_sweep, speedup_rows
from repro.engine.config import PAPER_CONFIGS
from repro.telemetry.histograms import FIGURE4_CATEGORIES
from repro.workloads import ALL_SUITES, PAPER_SUITES
from repro.workloads.web import WEBSITES, WebCorpusConfig, generate_website_program

PAPER = {
    "fig1_once": 48.88,
    "fig2_single": 59.91,
    "fig3_once": {"sunspider": 21.43, "v8": 4.68, "kraken": 39.79},
    "fig3_single": {"sunspider": 38.96, "v8": 40.62, "kraken": 55.91},
    "fig9_best": {"sunspider": 5.38, "v8": 4.83, "kraken": 1.25},
    "fig10": {"sunspider": 16.72, "v8": 18.84, "kraken": 15.94},
    "policy": {"sunspider": (56, 18, 38), "v8": (37, 11, 26), "kraken": (38, 14, 24)},
    "recompiles": {"sunspider": 3.6, "v8": 4.35, "kraken": 7.58},
    "web_sites": {"www.google.com": (12.07, 5.0), "www.facebook.com": (16.08, 4.9), "www.twitter.com": (22.10, 23.1)},
}


def main():
    out = io.StringIO()
    w = out.write

    w("# EXPERIMENTS — paper versus measured\n\n")
    w("Generated by `python benchmarks/generate_experiments.py`.  Every number\n")
    w("below is deterministic (seeded corpora, cycle-model timing); re-running\n")
    w("reproduces it exactly.  Absolute values are not expected to match a\n")
    w("2012 x86 testbed — the *shape* (who wins, by roughly what factor,\n")
    w("where the costs sit) is the reproduction target.  See DESIGN.md for\n")
    w("the substitution ledger and the per-experiment index.\n\n")
    w("The paper's illustrative figures are reproduced by the examples:\n")
    w("Figure 5 (interpreter/JIT life cycle) by `examples/quickstart.py` and\n")
    w("`examples/deopt_lifecycle.py`; Figures 6-8 (the running `map`/`inc`\n")
    w("example through every transformation) by\n")
    w("`examples/specialization_tour.py`, which prints the MIR after each\n")
    w("pass exactly as the figures do.\n\n")

    # ---- E1/E2: web histograms ------------------------------------------------
    w("## E1/E2 — Figures 1 & 2: Alexa-top-100 call behaviour\n\n")
    profiler = web_histograms(WebCorpusConfig(num_functions=2300))
    once = 100 * profiler.fraction_called_once()
    single = 100 * profiler.fraction_single_argument_set()
    hist1 = profiler.call_count_histogram()
    hist2 = profiler.argument_set_histogram()
    total = float(profiler.num_functions)
    w("| metric | paper | measured |\n|---|---|---|\n")
    w("| functions called once | 48.88%% | %.2f%% |\n" % once)
    w("| functions called twice | 11.12%% | %.2f%% |\n" % (100 * hist1.get(2, 0) / total))
    w("| single argument set | 59.91%% | %.2f%% |\n" % single)
    w("| two argument sets | 8.71%% | %.2f%% |\n" % (100 * hist2.get(2, 0) / total))
    w("| three argument sets | 4.60%% | %.2f%% |\n" % (100 * hist2.get(3, 0) / total))
    w("| most-called function | 1,956 calls | %d calls |\n" % max(hist1))
    w("\nThe corpus is synthetic (seeded) with the paper's published head\n")
    w("probabilities and a Zipf tail; the clamp of argument-set counts to\n")
    w("call counts shifts some tail mass toward small set counts (measured\n")
    w("two-sets fraction is above the paper's).\n\n")

    # ---- E3: suite histograms -----------------------------------------------------
    w("## E3 — Figure 3: suite invocation histograms (measured live)\n\n")
    w("| suite | functions | called-once paper | measured | single-args paper | measured |\n")
    w("|---|---|---|---|---|---|\n")
    suite_profilers = {}
    for name in PAPER_SUITES:
        p = suite_histograms(ALL_SUITES[name])
        suite_profilers[name] = p
        w(
            "| %s | %d | %.2f%% | %.2f%% | %.2f%% | %.2f%% |\n"
            % (
                name,
                p.num_functions,
                PAPER["fig3_once"][name],
                100 * p.fraction_called_once(),
                PAPER["fig3_single"][name],
                100 * p.fraction_single_argument_set(),
            )
        )
    w("\nOur suites are ~20 functions each against the originals' 154–320,\n")
    w("so the fractions are coarser; the qualitative claims hold (power-law\n")
    w("call counts; Kraken the most argument-monomorphic; the most-called\n")
    w("functions — the md5-style helpers — are also the most varied).\n\n")

    # ---- E4: parameter types ------------------------------------------------------
    w("## E4 — Figure 4: parameter types of single-argument-set functions\n\n")
    w("| population |" + "".join(" %s |" % c for c in FIGURE4_CATEGORIES) + "\n")
    w("|---|" + "---|" * len(FIGURE4_CATEGORIES) + "\n")
    rows = {"WEB": parameter_types(profiler)}
    for name, p in suite_profilers.items():
        rows[name] = parameter_types(p)
    for name, dist in rows.items():
        w("| %s |" % name + "".join(" %.1f%% |" % (100 * dist[c]) for c in FIGURE4_CATEGORIES) + "\n")
    w("\nPaper: web parameters are 35.57% objects / 32.95% strings / 6.36%\n")
    w("ints; the benchmarks are far more integer-heavy (37.5/48.7/33.0%).\n")
    w("Both relations hold above.\n\n")

    # ---- E5/E6: Figure 9 ----------------------------------------------------------
    w("## E5/E6 — Figure 9: runtime speedup and compilation overhead\n\n")
    sweeps = []
    for name in PAPER_SUITES:
        sweeps.append(run_suite_sweep(name, ALL_SUITES[name]))
    w("Columns are the paper's eleven optimization configurations; every cell\n")
    w("is the mean percent improvement over the IonMonkey baseline (type\n")
    w("specialization + GVN + LICM).  Output equality against the baseline\n")
    w("is asserted for every cell.\n\n```\n")
    w(format_figure9(sweeps, PAPER_CONFIGS, "total_cycles", "runtime speedup"))
    w("\n\n")
    w(format_figure9(sweeps, PAPER_CONFIGS, "compile_cycles", "compilation overhead"))
    w("\n```\n\n")
    w("Shape checks against the paper:\n\n")
    best = {}
    for sweep in sweeps:
        rows9 = speedup_rows(sweep, PAPER_CONFIGS)
        name, (arith, geo, detail) = max(rows9.items(), key=lambda kv: kv[1][0])
        best[sweep.suite_name] = (name, arith, geo, dict(zip(sweep.benchmarks(), detail)))
    w("| suite | paper best | measured best config | measured |\n|---|---|---|---|\n")
    for suite_name in PAPER_SUITES:
        config_name, arith, _geo, _detail = best[suite_name]
        w(
            "| %s | +%.2f%% | %s | %+.2f%% |\n"
            % (suite_name, PAPER["fig9_best"][suite_name], config_name, arith)
        )
    cp_only = speedup_rows(sweeps[0], PAPER_CONFIGS)["CP"][0]
    w("\n* Constant propagation alone: paper −1.04%% on SunSpider, measured %+.2f%%\n" % cp_only)
    w("  (\"without parameter specialization, constant propagation has little\n")
    w("  room to improve the code\").\n")
    sun_rows = speedup_rows(sweeps[0], PAPER_CONFIGS)
    bits_best = max(
        dict(zip(sweeps[0].benchmarks(), row[2]))["bitops-bits-in-byte"]
        for row in sun_rows.values()
    )
    w("* `bitops-bits-in-byte`: paper +49%%, measured %+.2f%% under its best\n" % bits_best)
    w("  configuration (closure inlining + loop inversion).\n")
    w("* The optimizations are not cumulative (paper §4): the all-five column\n")
    w("  is not the best column in any suite above.\n\n")

    w("### Compilation overhead, read against the paper\n\n")
    w("Sign convention above: positive = fewer compile cycles than baseline.\n")
    w("The paper observes small compile-time *improvements* on SunSpider\n")
    w("(−4..−9% overhead) and small costs elsewhere (V8 +2..+4%, Kraken up\n")
    w("to +16.5%).  The paper's *mechanism* is visible in per-binary terms —\n")
    w("folded parameters shrink the graph through the expensive back end,\n")
    w("which keeps per-binary compile work roughly flat even though the\n")
    w("specializing configurations run up to twice as many passes (and loop\n")
    w("inversion enlarges the bytecode they start from):\n\n")
    w("| suite | baseline cycles/binary | specialized cycles/binary |\n|---|---|---|\n")
    for sweep in sweeps:
        base_total = spec_total = base_bins = spec_bins = 0
        for bname in sweep.benchmarks():
            base_run = sweep.run_for("baseline", bname)
            spec_run = sweep.run_for("all", bname)
            base_total += base_run.compile_cycles
            spec_total += spec_run.compile_cycles
            base_bins += base_run.summary["compiles"]
            spec_bins += spec_run.summary["compiles"]
        w(
            "| %s | %.0f | %.0f |\n"
            % (sweep.suite_name, base_total / max(1, base_bins), spec_total / max(1, spec_bins))
        )
    w("\nOur *total* compile cycles exceed the baseline's mainly through the\n")
    w("deoptimization policy's extra compilations: our baseline almost never\n")
    w("recompiles (one binary per hot function), whereas 2012 IonMonkey\n")
    w("recompiled continuously for type updates, so the same absolute number\n")
    w("of deopt-recompiles was a small relative cost for the paper and a\n")
    w("large one for us.  The loop-inversion configurations add the rotated\n")
    w("bytecode's larger graphs on top, which matches the paper's observation\n")
    w("that its configurations are not additive.\n\n")

    # ---- E7: Figure 10 -----------------------------------------------------------------
    w("## E7 — Figure 10: native code size (smallest binary per function)\n\n")
    w("| suite | paper avg reduction | measured | functions compared |\n|---|---|---|---|\n")
    for name in PAPER_SUITES:
        report = code_size_study(ALL_SUITES[name])
        w(
            "| %s | %.2f%% | %.2f%% | %d |\n"
            % (name, PAPER["fig10"][name], 100 * report.average_reduction(), len(report.series()))
        )
    w("\nReductions run higher than the paper's because a function whose\n")
    w("arguments fully fold (e.g. a lookup helper specialized to a constant\n")
    w("byte) can collapse to a few instructions before its later deopt; the\n")
    w("paper's methodology (smallest binary per mode) counts that version,\n")
    w("and our small suites have proportionally more such helpers.\n\n")

    # ---- E8/E9: policy ----------------------------------------------------------------------
    w("## E8/E9 — §4 specialization policy and recompilations\n\n")
    w("| suite | paper (spec/success/deopt) | measured | paper recompile growth | measured |\n")
    w("|---|---|---|---|---|\n")
    for sweep in sweeps:
        specialized = successful = deoptimized = 0
        base_compiles = spec_compiles = 0
        for bname in sweep.benchmarks():
            run_all = sweep.run_for("all", bname)
            run_base = sweep.run_for("baseline", bname)
            specialized += len(run_all.specialized)
            successful += len(run_all.successful)
            deoptimized += len(run_all.deoptimized)
            base_compiles += run_base.summary["compiles"]
            spec_compiles += run_all.summary["compiles"]
        growth = 100.0 * (spec_compiles - base_compiles) / base_compiles
        paper_counts = PAPER["policy"][sweep.suite_name]
        w(
            "| %s | %d / %d / %d | %d / %d / %d | +%.2f%% | %+.2f%% |\n"
            % (
                sweep.suite_name,
                paper_counts[0], paper_counts[1], paper_counts[2],
                specialized, successful, deoptimized,
                PAPER["recompiles"][sweep.suite_name], growth,
            )
        )
    w("\nThe success/deopt split matches the paper (roughly a third of\n")
    w("specializations survive).  Recompile growth is larger than the\n")
    w("paper's percentages because our baseline rarely recompiles at all\n")
    w("(stable type feedback), so each deopt-recompile weighs more; in\n")
    w("absolute terms it is one extra compile per deoptimized function,\n")
    w("exactly the paper's policy.\n\n")

    # ---- E10: web code size --------------------------------------------------------------------
    w("## E10 — §4 code size on web-page workloads\n\n")
    w("| site | paper size reduction | measured | paper recompile growth | measured |\n")
    w("|---|---|---|---|---|\n")
    from repro import BASELINE, FULL_SPEC, Engine

    for site, functions, poly in WEBSITES:
        source = generate_website_program(site, functions, poly)
        base_engine = Engine(config=BASELINE, hot_call_threshold=5)
        base_engine.run_source(source)
        spec_engine = Engine(config=FULL_SPEC, hot_call_threshold=5)
        spec_engine.run_source(source)
        base_sizes = {
            base_engine.stats.function_names[cid]: size
            for cid, size in base_engine.stats.code_sizes.items()
        }
        spec_sizes = {
            spec_engine.stats.function_names[cid]: size
            for cid, size in spec_engine.stats.code_sizes.items()
        }
        common = set(base_sizes) & set(spec_sizes)
        reductions = [
            (base_sizes[n] - spec_sizes[n]) / float(base_sizes[n]) for n in common if base_sizes[n]
        ]
        avg = 100.0 * sum(reductions) / len(reductions) if reductions else 0.0
        growth = 100.0 * (spec_engine.stats.compiles - base_engine.stats.compiles) / max(
            1, base_engine.stats.compiles
        )
        paper_red, paper_growth = PAPER["web_sites"][site]
        w(
            "| %s | %.2f%% | %.2f%% | +%.1f%% | %+.1f%% |\n"
            % (site, paper_red, avg, paper_growth, growth)
        )
    w("\nThe twitter stand-in is generated with a 3x higher fraction of\n")
    w("argument-polymorphic hot helpers, reproducing its outlier recompile\n")
    w("rate in the paper.\n\n")

    # ---- Extensions ----------------------------------------------------------------------------------
    w("## §6 future-work extensions (beyond the paper's evaluation)\n\n")
    w("Implemented and measured by the ablation benches\n")
    w("(`benchmarks/test_ablation_extensions.py`,\n")
    w("`benchmarks/test_ablation_cache_capacity.py`):\n\n")
    w("* **Overflow-check elimination** (Sol et al.): ~+4-5% on a bounded\n")
    w("  integer kernel — the guards range analysis clears each cost one\n")
    w("  modelled check cycle per execution.\n")
    w("* **Loop unrolling under value specialization**: ~+10% on a hot\n")
    w("  constant-trip kernel; constant propagation evaluates the unrolled\n")
    w("  body away entirely.\n")
    w("* **Specialization-cache capacity**: capacity 2 eliminates all\n")
    w("  deoptimizations on a two-argument-set workload at no runtime cost,\n")
    w("  supporting the paper's closing hypothesis that small caches are the\n")
    w("  right tradeoff (high-diversity workloads see no benefit at any\n")
    w("  capacity).\n")

    # ---- Host time (not an experiment) ----------------------------------------------------------
    w("\n## Host time: not an experiment of this file\n\n")
    w("How fast the *simulator* runs on the host is not a paper experiment\n")
    w("and is not recorded here: host seconds are measured by `hostbench/`\n")
    w("alone (BENCHMARK.json; docs/PERF.md, \"Host time is hostbench's\").\n")
    w("All executor backends are bit-identical in every deterministic\n")
    w("observable (stats, cycles, printed output, trace streams — enforced by\n")
    w("`tests/test_executor_backends.py`), so all paper numbers above are\n")
    w("backend-independent.  The deterministic extensions' cycle sections\n")
    w("(deoptless dispatch, serving SLO) are checked in as\n")
    w("`BENCH_cycles.json`; refresh with\n")
    w("`python -m repro bench --cycles --output BENCH_cycles.json`, gate with\n")
    w("`python -m repro bench --compare BENCH_cycles.json` (zero tolerance;\n")
    w("tier-1 runs the same comparison).\n")

    text = out.getvalue()
    path = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")
    with open(path, "w") as f:
        f.write(text)
    sys.stdout.write(text)
    sys.stdout.write("\nwrote %s\n" % os.path.abspath(path))


if __name__ == "__main__":
    main()
