"""The one gate: judge a cycle-bench run against a baseline.

Diffs two result dicts (the shape ``BENCH_cycles.json`` holds — see
:mod:`repro.bench.cycles`) row by row of the section table into a
machine-readable delta report.  Everything compared is deterministic,
so there are no tolerances: a ``cycles`` row regresses on any rise, a
``rate`` row on any fall, a ``flag`` row unless it is true, and a row
with a ``bound`` when it crosses that limit — whether or not the
baseline holds the field.  ``exact`` rows only report.

Verdicts: ``ok``, ``regressed``, ``improved``, ``changed`` (an exact
counter moved, or the baseline has no value to judge against) and
``missing`` (a row the current run does not hold; counted with the
regressions).  A section absent from the current run is skipped unless
it was asked for by name.
"""

from repro.bench.cycles import SECTIONS, expand_rows, format_value, lookup


def _judge(kind, bound, base, cur):
    """Verdict for one row's baseline and current values."""
    if cur is None:
        return "missing"
    if kind == "flag":
        return "ok" if cur is True else "regressed"
    if kind == "exact":
        return "ok" if cur == base else "changed"
    # ``rate`` is ``cycles`` with the good direction reversed.
    sign = -1 if kind == "rate" else 1
    if bound is not None and sign * cur > sign * bound:
        return "regressed"
    if base is None:
        return "changed"
    if sign * cur > sign * base:
        return "regressed"
    return "improved" if sign * cur < sign * base else "ok"


def compare_results(current, baseline, sections=None):
    """Diff two result dicts into a delta report.

    ``sections`` (from :func:`repro.bench.cycles.select_sections`)
    narrows the comparison and makes a named section the current run
    lacks a ``missing`` row; by default every section the current run
    holds is compared.  Returns::

        {"status": "pass" | "fail",
         "regressions": n, "improvements": n, "changes": n,
         "deltas": [{"section", "metric", "kind", "bound", "baseline",
                     "current", "delta_pct", "status"}, ...]}
    """
    deltas = []
    for section in SECTIONS if sections is None else sections:
        cur_tree = current.get(section.key)
        base_tree = baseline.get(section.key) or {}
        if cur_tree is None:
            if sections is None:
                continue
            cur_tree = {}
        for path, kind, bound in expand_rows(section, base_tree, cur_tree):
            base = lookup(base_tree, path)
            cur = lookup(cur_tree, path)
            numeric = kind != "flag" and cur is not None and base
            deltas.append(
                {
                    "section": section.name,
                    "metric": path,
                    "kind": kind,
                    "bound": bound,
                    "baseline": base,
                    "current": cur,
                    "delta_pct": round(100.0 * (cur - base) / base, 4) if numeric else None,
                    "status": _judge(kind, bound, base, cur),
                }
            )
    regressions = sum(1 for d in deltas if d["status"] in ("regressed", "missing"))
    return {
        "status": "fail" if regressions else "pass",
        "regressions": regressions,
        "improvements": sum(1 for d in deltas if d["status"] == "improved"),
        "changes": sum(1 for d in deltas if d["status"] == "changed"),
        "deltas": deltas,
    }


def format_compare(report, verbose=False):
    """Human-readable delta table; quiet rows elided unless verbose."""
    layout = "%-11s %-44s %14s %14s %9s %7s %10s"
    lines = [
        "-- bench compare: %s (%d regressed, %d improved, %d changed) --"
        % (
            report["status"].upper(),
            report["regressions"],
            report["improvements"],
            report["changes"],
        ),
        layout % ("section", "metric", "baseline", "current", "delta", "limit", "status"),
    ]
    for delta in report["deltas"]:
        if not verbose and delta["status"] == "ok":
            continue
        pct = delta["delta_pct"]
        lines.append(
            layout
            % (
                delta["section"],
                delta["metric"],
                format_value(delta["baseline"]),
                format_value(delta["current"]),
                "-" if pct is None else "%+.2f%%" % pct,
                format_value(delta["bound"]),
                delta["status"],
            )
        )
    if len(lines) == 2:
        lines.append("(all %d rows equal to the baseline)" % len(report["deltas"]))
    return "\n".join(lines)
