"""Bench regression sentinel: structured deltas between two runs.

``tools/perf_gate.py`` answers pass/fail; this module answers *what
moved*.  It diffs two wall-clock result dicts (the shape
``BENCH_wallclock.json`` holds — see ``repro.bench.wallclock``) into a
machine-readable delta report: one record per (section, suite, metric)
with the baseline value, the current value, the percent delta and a
verdict against a per-kind threshold.

Metric kinds and their default thresholds:

``time``
    Host seconds (``*_seconds``).  Noisy across machines and runs, so
    the widest tolerance (15%).  Lower is better.
``ratio``
    Same-machine speedup ratios (``speedup``, ``whole_speedup``,
    geomeans, warm-cache speedup).  Machine-comparable; 10% tolerance.
    Higher is better.
``cycles``
    Deterministic model cycles (the background-lane, deoptless and
    serving sections).  Bit
    reproducible, so the tolerance is exactly zero: any rise is a
    regression, and two runs of the same tree compare clean.  Lower
    is better.
``exact``
    Deterministic work counters (``sim_instructions``, ``disk_hits``).
    Report-only: a change is surfaced as ``changed`` but never fails
    the sentinel — counts legitimately move when benchmarks change.

Verdicts: ``ok`` (within threshold), ``regressed``, ``improved``
(moved the good way past the threshold), ``changed`` (exact metric
moved), ``missing`` (in baseline, absent from the current run —
treated as a regression, matching ``check_gate``'s loud failure).
"""

import json

from repro.bench.wallclock import ALL_SECTIONS

#: Default per-kind fractional tolerances (``--threshold kind=value``).
THRESHOLDS = {"time": 0.15, "ratio": 0.10, "cycles": 0.0}

#: Which way is good, per kind.  ``exact`` has no direction.
_LOWER_IS_BETTER = {"time": True, "ratio": False, "cycles": True}

#: (metric-name suffix match, kind) for per-suite backend rows.
_SUITE_METRICS = (
    ("_seconds", "time"),
    ("speedup", "ratio"),
    ("sim_instructions", "exact"),
)


def _classify_suite_metric(name):
    """Kind for one key of a ``suites`` row; None to skip it."""
    if name.endswith("_seconds"):
        return "time"
    if name == "speedup" or name == "whole_speedup":
        return "ratio"
    if name == "sim_instructions":
        return "exact"
    # ``*_sips`` is derived from seconds and sim_instructions — diffing
    # it would double-count the same movement.
    return None


def _delta(section, suite, metric, kind, base, cur, thresholds):
    """One delta record, verdict included."""
    record = {
        "section": section,
        "suite": suite,
        "metric": metric,
        "kind": kind,
        "baseline": base,
        "current": cur,
        "delta_pct": None,
        "threshold_pct": None,
        "status": "ok",
    }
    if cur is None:
        record["status"] = "missing"
        return record
    if base:
        record["delta_pct"] = round(100.0 * (cur - base) / base, 4)
    elif cur != base:
        record["delta_pct"] = None
    if kind == "exact":
        if cur != base:
            record["status"] = "changed"
        return record
    tolerance = thresholds.get(kind, THRESHOLDS[kind])
    record["threshold_pct"] = round(100.0 * tolerance, 4)
    if base is None or not base:
        if cur != base:
            record["status"] = "changed"
        return record
    fraction = (cur - base) / base
    if _LOWER_IS_BETTER[kind]:
        if fraction > tolerance:
            record["status"] = "regressed"
        elif fraction < -tolerance:
            record["status"] = "improved"
    else:
        if fraction < -tolerance:
            record["status"] = "regressed"
        elif fraction > tolerance:
            record["status"] = "improved"
    return record


def compare_results(current, baseline, thresholds=None, sections=None):
    """Diff two wall-clock result dicts into a delta report.

    ``sections`` narrows the comparison (names from
    ``repro.bench.wallclock.ALL_SECTIONS``); a section absent from the
    *current* dict is skipped regardless, so the sentinel composes
    with partial runs exactly like ``check_gate``.  Returns::

        {"status": "pass" | "fail",
         "regressions": n, "improvements": n, "changes": n,
         "thresholds": {kind: fraction},
         "deltas": [record, ...]}
    """
    merged = dict(THRESHOLDS)
    merged.update(thresholds or {})
    if sections is None:
        sections = ALL_SECTIONS
    deltas = []

    def diff(section, suite, metric, kind, base, cur):
        deltas.append(_delta(section, suite, metric, kind, base, cur, merged))

    if "backends" in sections and current.get("suites"):
        for suite, base_row in sorted(baseline.get("suites", {}).items()):
            cur_row = current.get("suites", {}).get(suite, {})
            for metric in sorted(base_row):
                kind = _classify_suite_metric(metric)
                if kind is None:
                    continue
                diff("backends", suite, metric, kind, base_row[metric], cur_row.get(metric))
        for metric in ("geomean_speedup", "geomean_whole_speedup"):
            if metric in baseline:
                diff("backends", "geomean", metric, "ratio",
                     baseline[metric], current.get(metric))
    if "background" in sections and current.get("background_compile"):
        base_bg = baseline.get("background_compile", {})
        cur_bg = current.get("background_compile", {})
        for suite, base_row in sorted(base_bg.get("suites", {}).items()):
            cur_row = cur_bg.get("suites", {}).get(suite, {})
            for metric in ("sync_cycles", "background_cycles", "cycle_ratio"):
                if metric in base_row:
                    diff("background", suite, metric, "cycles",
                         base_row[metric], cur_row.get(metric))
        if "geomean_cycle_ratio" in base_bg:
            diff("background", "geomean", "geomean_cycle_ratio", "cycles",
                 base_bg["geomean_cycle_ratio"], cur_bg.get("geomean_cycle_ratio"))
    if "deoptless" in sections and current.get("deoptless"):
        base_dl = baseline.get("deoptless", {})
        cur_dl = current.get("deoptless", {})
        if base_dl:
            for metric in ("off_cycles", "on_cycles", "cycle_ratio",
                           "invalidation_ratio"):
                if metric in base_dl:
                    diff("deoptless", "churn", metric, "cycles",
                         base_dl[metric], cur_dl.get(metric))
            for metric in ("off_invalidations", "on_invalidations",
                           "deoptless_reentries", "deoptless_misses",
                           "deoptless_generalized_compiles"):
                if metric in base_dl:
                    diff("deoptless", "churn", metric, "exact",
                         base_dl[metric], cur_dl.get(metric))
            for bench, base_row in sorted(base_dl.get("benchmarks", {}).items()):
                cur_row = cur_dl.get("benchmarks", {}).get(bench, {})
                for metric in ("off_cycles", "on_cycles", "cycle_ratio"):
                    if metric in base_row:
                        diff("deoptless", bench, metric, "cycles",
                             base_row[metric], cur_row.get(metric))
            for flag in ("outputs_identical", "backends_identical"):
                if not cur_dl.get(flag, True):
                    deltas.append({
                        "section": "deoptless",
                        "suite": "churn",
                        "metric": flag,
                        "kind": "exact",
                        "baseline": True,
                        "current": False,
                        "delta_pct": None,
                        "threshold_pct": None,
                        "status": "regressed",
                    })
    if "warm-cache" in sections and current.get("warm_cache"):
        base_warm = baseline.get("warm_cache", {})
        cur_warm = current.get("warm_cache", {})
        if base_warm:
            for metric, kind in (
                ("cold_seconds", "time"),
                ("warm_seconds", "time"),
                ("speedup", "ratio"),
                ("disk_hits", "exact"),
            ):
                if metric in base_warm:
                    diff("warm-cache", "web", metric, kind,
                         base_warm[metric], cur_warm.get(metric))
            if not cur_warm.get("cycles_identical", True):
                deltas.append({
                    "section": "warm-cache",
                    "suite": "web",
                    "metric": "cycles_identical",
                    "kind": "exact",
                    "baseline": True,
                    "current": False,
                    "delta_pct": None,
                    "threshold_pct": None,
                    "status": "regressed",
                })

    if "serving" in sections and current.get("serving"):
        base_sv = baseline.get("serving", {})
        cur_sv = current.get("serving", {})
        if base_sv:
            # Latencies are deterministic model cycles on the admission
            # clock: zero tolerance, like the background lane.
            for metric in ("p50_latency_cycles", "p99_latency_cycles",
                           "total_latency_cycles"):
                if metric in base_sv:
                    diff("serving", "fleet", metric, "cycles",
                         base_sv[metric], cur_sv.get(metric))
            for metric in ("warm_hit_rate", "cold_hit_rate"):
                if metric in base_sv:
                    diff("serving", "fleet", metric, "ratio",
                         base_sv[metric], cur_sv.get(metric))
            for metric in ("requests", "rejected", "batches", "tenants"):
                if metric in base_sv:
                    diff("serving", "fleet", metric, "exact",
                         base_sv[metric], cur_sv.get(metric))
            if not cur_sv.get("cycles_identical", True):
                deltas.append({
                    "section": "serving",
                    "suite": "fleet",
                    "metric": "cycles_identical",
                    "kind": "exact",
                    "baseline": True,
                    "current": False,
                    "delta_pct": None,
                    "threshold_pct": None,
                    "status": "regressed",
                })

    regressions = sum(1 for d in deltas if d["status"] in ("regressed", "missing"))
    return {
        "status": "fail" if regressions else "pass",
        "regressions": regressions,
        "improvements": sum(1 for d in deltas if d["status"] == "improved"),
        "changes": sum(1 for d in deltas if d["status"] == "changed"),
        "thresholds": merged,
        "deltas": deltas,
    }


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return "%.4f" % value
    return "{:,}".format(value) if isinstance(value, int) else str(value)


def format_compare(report, verbose=False):
    """Human-readable delta table; quiet rows elided unless verbose."""
    lines = []
    lines.append(
        "-- bench compare: %s (%d regressed, %d improved, %d changed) --"
        % (
            report["status"].upper(),
            report["regressions"],
            report["improvements"],
            report["changes"],
        )
    )
    lines.append(
        "%-11s %-10s %-22s %12s %12s %9s %10s"
        % ("section", "suite", "metric", "baseline", "current", "delta", "status")
    )
    for delta in report["deltas"]:
        if not verbose and delta["status"] == "ok":
            continue
        pct = delta["delta_pct"]
        lines.append(
            "%-11s %-10s %-22s %12s %12s %9s %10s"
            % (
                delta["section"],
                delta["suite"],
                delta["metric"],
                _fmt(delta["baseline"]),
                _fmt(delta["current"]),
                "-" if pct is None else "%+.2f%%" % pct,
                delta["status"],
            )
        )
    if len(lines) == 2:
        lines.append("(all %d metrics within thresholds)" % len(report["deltas"]))
    return "\n".join(lines)


def write_compare_json(report, path):
    """Write the delta report (the CI ``bench-delta.json`` artifact)."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_compare_json(path):
    """Load a report written by :func:`write_compare_json`."""
    with open(path) as handle:
        return json.load(handle)
