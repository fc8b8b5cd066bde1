"""The deterministic cycle baseline: what ``BENCH_cycles.json`` holds.

Every number here is a *model cycle* count (or a ratio / hit rate
derived from exact counts) — the paper's observable, bit-reproducible
on any machine — so the checked-in baseline compares with zero
tolerance.  Host seconds are not measured here at all: they belong to
``hostbench/`` (docs/PERF.md, "Host time is hostbench's").

Each section is stated once, in :data:`SECTIONS`: its JSON key, the
function that measures it and its gated fields as ``(path, kind[,
bound])`` rows.  The text report (:func:`format_cycles`), the one gate
(:func:`repro.bench.compare.compare_results`) and section-name
validation (:func:`select_sections`) are all derived from that table.

Row kinds:

``cycles``  lower is better, zero tolerance: any rise is a regression.
``rate``    higher is better, zero tolerance: any fall is a regression.
``exact``   a work counter; a change is reported, never fails.
``flag``    an identity invariant; must be true.

``bound`` is a documented acceptance limit (a ceiling for ``cycles``,
a floor for ``rate``) that holds whatever the baseline says.
"""

import collections
import json
import shutil
import tempfile

from repro.engine.config import FULL_SPEC
from repro.engine.runtime_engine import (
    EXECUTOR_BACKENDS,
    Engine,
    resolve_executor_backend,
)
from repro.workloads import ALL_SUITES

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
SERVING_SHARDS = 4


def _off_on(off_cycles, on_cycles):
    return {
        "off_cycles": off_cycles,
        "on_cycles": on_cycles,
        "cycle_ratio": round(on_cycles / off_cycles, 5),
    }


def measure_deoptless_cycles():
    """§4 bail-and-recompile vs the deoptless dispatch table.

    Runs the precondition-churn suite (``repro.workloads.churn``,
    docs/DEOPTLESS.md) with the specialization dispatch table off
    (``Engine(deoptless=False)`` — the paper's §4 discard policy) and
    on.  Per benchmark the table must also be **observably free**:
    guest output is compared between off and on, and the on run is
    repeated under every other registered executor backend, which
    must reproduce both the output and the cycle total bit for bit.
    """
    default_backend = resolve_executor_backend()
    other_backends = [name for name in EXECUTOR_BACKENDS if name != default_backend]
    off_runs = []
    on_runs = []
    outputs_identical = True
    backends_identical = True
    benchmarks = {}
    for benchmark in ALL_SUITES["churn"]:
        off_engine = Engine(config=FULL_SPEC, deoptless=False)
        off_output = off_engine.run_source(benchmark.source)
        on_engine = Engine(config=FULL_SPEC, deoptless=True)
        on_output = on_engine.run_source(benchmark.source)
        outputs_identical = outputs_identical and off_output == on_output
        for backend in other_backends:
            alt = Engine(config=FULL_SPEC, deoptless=True, executor_backend=backend)
            backends_identical = backends_identical and (
                alt.run_source(benchmark.source) == on_output
                and alt.stats.total_cycles == on_engine.stats.total_cycles
            )
        off_runs.append(off_engine.stats)
        on_runs.append(on_engine.stats)
        benchmarks[benchmark.name] = _off_on(
            off_engine.stats.total_cycles, on_engine.stats.total_cycles
        )

    def total(runs, counter):
        return sum(getattr(stats, counter) for stats in runs)

    off_discards = total(off_runs, "invalidations")
    on_discards = total(on_runs, "invalidations")
    section = _off_on(total(off_runs, "total_cycles"), total(on_runs, "total_cycles"))
    section.update(
        {
            "suite": "churn",
            "off_invalidations": off_discards,
            "on_invalidations": on_discards,
            "invalidation_ratio": round(on_discards / off_discards, 5)
            if off_discards
            else 0.0,
            "deoptless_reentries": total(on_runs, "deoptless_reentries"),
            "deoptless_misses": total(on_runs, "deoptless_misses"),
            "deoptless_generalized_compiles": total(
                on_runs, "deoptless_generalized_compiles"
            ),
            "outputs_identical": outputs_identical,
            "backends_identical": backends_identical,
            "benchmarks": benchmarks,
        }
    )
    return section


def measure_serving():
    """The serving tier: service-cycle percentiles and warm shards.

    Runs the same power-law fleet schedule twice against one shared
    sharded artifact store: a *cold* pass that populates it, then a
    *warm* pass with fresh isolates that should serve almost entirely
    from it.  A request is measured by its ``service_cycles``, the
    model cycles its tenant's engine ran.  Cold and warm passes must
    agree on the service total (the artifact store is a host-time
    optimization only).
    """
    from repro.serving.fleet import FleetProfile, run_fleet

    profile = FleetProfile(**SERVING_PROFILE)
    root = tempfile.mkdtemp(prefix="repro-serving-")
    try:
        cold, warm = (
            run_fleet(
                profile,
                cache_mode="shared",
                cache_root=root,
                shards=SERVING_SHARDS,
            )
            for _ in range(2)
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "profile": profile.as_dict(),
        "shards": SERVING_SHARDS,
        "requests": warm["requests"],
        "tenants": warm["tenants"],
        "p50_service_cycles": warm["p50_service_cycles"],
        "p99_service_cycles": warm["p99_service_cycles"],
        "total_service_cycles": warm["total_service_cycles"],
        "cold_hit_rate": round(cold["warm_hit_rate"], 5),
        "warm_hit_rate": round(warm["warm_hit_rate"], 5),
        "cycles_identical": cold["total_service_cycles"]
        == warm["total_service_cycles"],
    }


Section = collections.namedtuple("Section", "name key title measure rows")

#: The one statement of every section.  A ``*`` in a path stands for
#: each key found at that level (suite or benchmark names).
SECTIONS = (
    Section(
        "deoptless",
        "deoptless",
        "deoptless dispatch table (churn suite, table off vs on)",
        measure_deoptless_cycles,
        (
            ("benchmarks.*.off_cycles", "cycles"),
            ("benchmarks.*.on_cycles", "cycles"),
            ("benchmarks.*.cycle_ratio", "cycles"),
            ("off_cycles", "cycles"),
            ("on_cycles", "cycles"),
            ("cycle_ratio", "cycles", DEOPTLESS_CYCLE_CEILING),
            ("off_invalidations", "exact"),
            ("on_invalidations", "cycles"),
            ("invalidation_ratio", "cycles", DEOPTLESS_DISCARD_CEILING),
            ("deoptless_reentries", "exact"),
            ("deoptless_misses", "exact"),
            ("deoptless_generalized_compiles", "exact"),
            ("outputs_identical", "flag"),
            ("backends_identical", "flag"),
        ),
    ),
    Section(
        "serving",
        "serving",
        "serving tier (fleet profile, warm pass)",
        measure_serving,
        (
            ("p50_service_cycles", "cycles"),
            ("p99_service_cycles", "cycles"),
            ("total_service_cycles", "cycles"),
            ("warm_hit_rate", "rate", SERVING_WARM_HIT_FLOOR),
            ("cold_hit_rate", "rate"),
            ("requests", "exact"),
            ("tenants", "exact"),
            ("cycles_identical", "flag"),
        ),
    ),
)


def select_sections(text):
    """The table's sections named in comma-separated ``text``; raises
    ``ValueError`` on a name the table does not hold."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    by_name = {section.name: section for section in SECTIONS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ValueError(
            "unknown sections %s; available: %s"
            % (", ".join(unknown), ", ".join(by_name))
        )
    return tuple(by_name[name] for name in names)


def lookup(tree, path):
    """The value at dotted ``path`` of a section dict; None if absent."""
    for part in path.split("."):
        if not isinstance(tree, dict) or part not in tree:
            return None
        tree = tree[part]
    return tree


def expand_rows(section, *results):
    """Yield ``(path, kind, bound)`` for every row of ``section``, a
    ``*`` replaced in turn by each key any of ``results`` holds there
    (left as is when none holds any, so the row still reads absent)."""
    for row in section.rows:
        path, kind = row[:2]
        bound = row[2] if len(row) == 3 else None
        if "*" not in path:
            yield path, kind, bound
            continue
        head, tail = path.split(".*.")
        keys = {key for result in results for key in lookup(result, head) or ()}
        for key in sorted(keys) or ["*"]:
            yield "%s.%s.%s" % (head, key, tail), kind, bound


def run(sections=SECTIONS):
    """Measure ``sections``; returns ``{section.key: measured dict}``,
    the shape ``BENCH_cycles.json`` holds."""
    return {section.key: section.measure() for section in sections}


def format_value(value):
    """One table cell: ``-`` for absent, thousands separators, 5 places."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.5f" % value
    if type(value) is int:
        return "{:,}".format(value)
    return str(value)


def format_cycles(results):
    """Human-readable listing of one :func:`run` result."""
    lines = []
    for section in SECTIONS:
        measured = results.get(section.key)
        if measured is None:
            continue
        lines.append("-- %s, model cycles --" % section.title)
        for path, kind, bound in expand_rows(section, measured):
            limit = "" if bound is None else " (limit %s)" % bound
            lines.append(
                "%-44s %14s  %s%s"
                % (path, format_value(lookup(measured, path)), kind, limit)
            )
    return "\n".join(lines)


def write_json(data, path):
    """Write a result or delta-report dict the way the checked-in
    files are written (sorted keys, so reruns are byte-identical)."""
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path):
    """Load a file written by :func:`write_json`."""
    with open(path) as handle:
        return json.load(handle)
