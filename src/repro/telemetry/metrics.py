"""Deterministic process-wide metrics: the fleet-health counterpart of
the per-run :class:`~repro.engine.stats.EngineStats` ledger.

`EngineStats` answers "what did this run cost"; this module answers the
questions a production serving tier asks — tier mix, deopt and
invalidation rates, specialization-cache occupancy, compile cost,
disk-cache hit rate — as end-of-run totals, mergeable across worker
processes into one fleet view.  (When each fact happened is the
tracer's to say: it stamps every engine event on the cycle clock.)

Design rules (the same contract as the trace layer, docs/TRACING.md):

* **Read at the end, never written during a run.**  Every engine fact
  is counted in the engine's own ledger (``EngineStats``, the executor,
  the interpreter, the disk cache), unconditionally, like the cycles.
  :func:`metrics_payload` computes the payload from that live state
  when someone asks — ``Engine.finish()`` for an attached registry —
  and writes nothing, so no registry is read or written while a guest
  runs and a metrics reader cannot change any observable (stats,
  cycles, output, traces).
* **A closed name registry.**  Every metric the engine may record is
  declared in :data:`METRIC_SCHEMA` with its type (``counter`` /
  ``gauge`` / ``histogram``) and — for histograms — its fixed bucket
  bounds.  A payload carries exactly these names, and
  ``docs/METRICS.md`` is schema-checked against the same table,
  exactly like the trace event schema.
* **A passive holder.**  A registry holds numbers and nothing else —
  no clock, no callback into the engine — so two runs of the same
  workload export bit-identical payloads on every backend and every
  machine.  The serving tier computes its request rows from its
  isolates the same way (``TenantIsolate.metrics_payload``).
* **Exact merge.**  Counters, gauges and histogram buckets are
  integers summed exactly.  Folding the per-worker payloads of
  ``bench --jobs N`` therefore yields the *same numbers* as a
  single-process run — tested, not hoped.

Two exporters turn a registry (or a merged payload) into artifacts:

* :func:`to_prometheus` — Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / samples, histograms with cumulative
  ``_bucket{le=...}`` rows);
* :func:`write_metrics_jsonl` — the payload as one sorted-key JSON
  record.

See ``docs/METRICS.md`` for the full metric name registry, bucket
schemes, exporter formats and merge semantics.
"""

import copy
import json

from repro.engine.config import interp_cycles

#: Fixed bucket upper bounds (cycles) for the per-compilation cost
#: histogram (the ``cycles`` field of ``compile.finish`` events).
COMPILE_COST_BUCKETS = (1024, 2048, 4096, 8192, 16384, 32768, 65536)

#: Every metric the engine may record: name -> declaration.  Each
#: declaration carries ``type`` (``counter`` | ``gauge`` |
#: ``histogram``), ``help`` (the Prometheus HELP string), and for
#: histograms the fixed ``buckets`` bounds.  Every value merges by sum.
#: This registry is the single source of truth: :func:`empty_payload`
#: builds its key set from it and ``tests/test_documentation.py``
#: checks ``docs/METRICS.md`` covers exactly these names.
METRIC_SCHEMA = {
    # -- tier mix ---------------------------------------------------------
    "repro_engine_calls_interp_total": {
        "type": "counter",
        "help": "guest calls executed by the interpreter (JIT declined)",
    },
    "repro_engine_calls_native_total": {
        "type": "counter",
        "help": "guest calls dispatched to a compiled binary",
    },
    "repro_engine_osr_enters_total": {
        "type": "counter",
        "help": "loop back-edge (on-stack replacement) entries into native code",
    },
    # -- compilation ------------------------------------------------------
    "repro_engine_compiles_total": {
        "type": "counter",
        "help": "successful compilations",
    },
    "repro_engine_osr_compiles_total": {
        "type": "counter",
        "help": "compilations entered from a loop back edge",
    },
    "repro_engine_recompilations_total": {
        "type": "counter",
        "help": "compilations beyond the first, summed over functions",
    },
    # -- guard / deopt / invalidation rates -------------------------------
    "repro_engine_bailouts_total": {
        "type": "counter",
        "help": "guard failures (deoptimizations to the interpreter)",
    },
    "repro_engine_shape_guard_bailouts_total": {
        "type": "counter",
        "help": "bailouts whose failing guard was a guardshape",
    },
    "repro_engine_invalidations_total": {
        "type": "counter",
        "help": "compiled binaries discarded (any reason)",
    },
    "repro_engine_retrains_total": {
        "type": "counter",
        "help": "shape-retrain discards (binary dropped so the IC can relearn)",
    },
    "repro_engine_ic_transitions_total": {
        "type": "counter",
        "help": "property-site inline caches learning a new receiver shape",
    },
    "repro_engine_retrain_noops_total": {
        "type": "counter",
        "help": "shape-retrain discards skipped (enriched IC reproduces the binary)",
    },
    # -- deoptless dispatch table (docs/DEOPTLESS.md) ---------------------
    "repro_deoptless_reentries_total": {
        "type": "counter",
        "help": "guard misses recovered by dispatching into a sibling binary",
    },
    "repro_deoptless_misses_total": {
        "type": "counter",
        "help": "dispatch-table misses (no compatible sibling compiled yet)",
    },
    "repro_deoptless_generalized_compiles_total": {
        "type": "counter",
        "help": "generalized siblings compiled after repeated table misses",
    },
    # -- specialization cache ---------------------------------------------
    "repro_spec_cache_hits_total": {
        "type": "counter",
        "help": "calls served by a cached specialized binary",
    },
    "repro_spec_cache_misses_total": {
        "type": "counter",
        "help": "specialized-call lookups that found no matching binary",
    },
    "repro_spec_cache_stores_total": {
        "type": "counter",
        "help": "specialized binaries inserted into the per-function cache",
    },
    # -- persistent disk code cache ---------------------------------------
    "repro_cache_disk_hits_total": {
        "type": "counter",
        "help": "disk code cache hits (compile pipeline skipped)",
    },
    "repro_cache_disk_misses_total": {
        "type": "counter",
        "help": "disk code cache misses (including corruption-degraded reads)",
    },
    "repro_cache_disk_stores_total": {
        "type": "counter",
        "help": "artifacts persisted to the disk code cache",
    },
    "repro_cache_disk_evictions_total": {
        "type": "counter",
        "help": "artifacts removed by cache eviction (size/entry pressure)",
    },
    "repro_cache_disk_corrupt_total": {
        "type": "counter",
        "help": "disk entries rejected as torn/corrupt/unreadable (degraded to miss)",
    },
    "repro_cache_disk_uncacheable_total": {
        "type": "counter",
        "help": "compiles that could not be content-addressed (a function or other non-relocatable reference input)",
    },
    # -- cycle meters (gauges: monotonically sampled from the clock) ------
    "repro_engine_total_cycles": {
        "type": "gauge",
        "help": "the deterministic cycle clock (interp + native + compile + penalties)",
    },
    "repro_engine_interp_cycles": {
        "type": "gauge",
        "help": "cycles spent interpreting (ops + call setup)",
    },
    "repro_engine_native_cycles": {
        "type": "gauge",
        "help": "cycles spent in compiled code",
    },
    "repro_engine_compile_cycles": {
        "type": "gauge",
        "help": "cycles spent compiling (the program waits for every compile)",
    },
    "repro_engine_bailout_cycles": {
        "type": "gauge",
        "help": "cycles paid in bailout penalties",
    },
    "repro_engine_invalidation_cycles": {
        "type": "gauge",
        "help": "cycles paid in invalidation penalties",
    },
    # -- occupancy gauges -------------------------------------------------
    "repro_engine_functions_hot": {
        "type": "gauge",
        "help": "functions the engine tracks JIT state for",
    },
    "repro_spec_cache_entries": {
        "type": "gauge",
        "help": "specialized binaries currently cached across all functions",
    },
    "repro_engine_ic_sites_mono": {
        "type": "gauge",
        "help": "property sites whose inline cache holds one shape",
    },
    "repro_engine_ic_sites_poly": {
        "type": "gauge",
        "help": "property sites whose inline cache holds several shapes",
    },
    "repro_engine_ic_sites_mega": {
        "type": "gauge",
        "help": "property sites degraded to megamorphic",
    },
    # -- histograms -------------------------------------------------------
    "repro_compile_cycles_per_compile": {
        "type": "histogram",
        "help": "cycle cost of each compilation",
        "buckets": COMPILE_COST_BUCKETS,
    },
    # -- serving tier (repro.serving, docs/SERVING.md) --------------------
    "repro_serving_requests_total": {
        "type": "counter",
        "help": "requests executed to completion",
    },
    "repro_serving_tenants": {
        "type": "gauge",
        "help": "tenant isolates hosted",
    },
}


def _empty_histogram(spec):
    """A zeroed histogram cell for one schema declaration.

    ``counts`` has one slot per finite bucket plus the +Inf overflow;
    ``sum``/``count`` mirror the Prometheus ``_sum``/``_count`` series.
    """
    return {
        "buckets": list(spec["buckets"]),
        "counts": [0] * (len(spec["buckets"]) + 1),
        "sum": 0,
        "count": 0,
    }


def empty_payload():
    """A zeroed metrics payload with the full schema key set.

    The payload shape is what :meth:`MetricsRegistry.as_dict` returns
    and what :func:`merge_payloads` folds — every metric present, every
    value zero.
    """
    counters = {}
    gauges = {}
    histograms = {}
    for name, spec in METRIC_SCHEMA.items():
        kind = spec["type"]
        if kind == "counter":
            counters[name] = 0
        elif kind == "gauge":
            gauges[name] = 0
        else:
            histograms[name] = _empty_histogram(spec)
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


class MetricsRegistry(object):
    """Holds every declared metric for one engine (or one merged fleet).

    All metrics exist from construction (zeroed), so exports and merges
    always carry the full, stable key set.  The registry only holds
    numbers: ``Engine.finish`` loads the engine's payload into it
    (:meth:`load`).  It keeps no clock and no reference to the engine,
    so it reads the same after the engine is gone.
    """

    def __init__(self):
        payload = empty_payload()
        self.counters = payload["counters"]
        self.gauges = payload["gauges"]
        self.histograms = payload["histograms"]

    def load(self, payload):
        """Take every value of a full-schema ``payload``, which it keeps."""
        for kind in ("counters", "gauges", "histograms"):
            getattr(self, kind).update(payload[kind])

    # -- export ---------------------------------------------------------------

    def as_dict(self):
        """The full registry as a JSON-safe payload (stable key set), a copy."""
        return copy.deepcopy(
            {"counters": self.counters, "gauges": self.gauges, "histograms": self.histograms}
        )


# -- the engine's payload -----------------------------------------------------


def metrics_payload(engine):
    """The full-schema payload of ``engine``'s live state, computed now.

    Reads ``stats``, ``executor``, ``interpreter``, ``code_cache`` and
    ``states`` and writes nothing, so it is exact at any time, also after
    a guest raised; the serving rows stay zero.  docs/METRICS.md
    tabulates each metric's source.
    """
    stats = engine.stats
    interpreter = engine.interpreter
    total_calls = 0
    spec_entries = 0
    ic_sites = {"mono": 0, "poly": 0, "mega": 0}
    for state in engine.states.values():
        total_calls += state.call_count
        spec_entries += len(state.spec_cache)
        feedback = state.code.feedback
        if feedback is not None:
            for pc in feedback.shape_ics:
                ic_sites[feedback.ic_state(pc)] += 1
    payload = empty_payload()
    payload["counters"].update(
        {
            "repro_engine_calls_interp_total": stats.interp_calls,
            "repro_engine_calls_native_total": total_calls - stats.interp_calls,
            "repro_engine_osr_enters_total": stats.osr_enters,
            "repro_engine_compiles_total": stats.compiles,
            "repro_engine_osr_compiles_total": stats.osr_compiles,
            "repro_engine_recompilations_total": stats.recompilations,
            "repro_engine_bailouts_total": stats.bailouts,
            "repro_engine_shape_guard_bailouts_total": stats.shape_guard_bailouts,
            "repro_engine_invalidations_total": stats.invalidations,
            "repro_engine_retrains_total": stats.retrains,
            "repro_engine_ic_transitions_total": interpreter.ic_transitions,
            "repro_engine_retrain_noops_total": stats.retrain_noops,
            "repro_deoptless_reentries_total": stats.deoptless_reentries,
            "repro_deoptless_misses_total": stats.deoptless_misses,
            "repro_deoptless_generalized_compiles_total": stats.deoptless_generalized_compiles,
            "repro_spec_cache_hits_total": stats.spec_cache_hits,
            "repro_spec_cache_misses_total": stats.spec_cache_misses,
            "repro_spec_cache_stores_total": stats.spec_cache_stores,
        }
    )
    cache = engine.code_cache
    if cache is not None:
        payload["counters"].update(
            {
                "repro_cache_disk_hits_total": cache.hits,
                "repro_cache_disk_misses_total": cache.misses,
                "repro_cache_disk_stores_total": cache.stores,
                "repro_cache_disk_evictions_total": cache.evictions,
                "repro_cache_disk_corrupt_total": cache.corrupt,
                "repro_cache_disk_uncacheable_total": cache.uncacheable,
            }
        )
    payload["gauges"].update(
        {
            "repro_engine_total_cycles": engine.trace_clock(),
            "repro_engine_interp_cycles": interp_cycles(
                interpreter.ops_executed, stats.interp_calls
            ),
            "repro_engine_native_cycles": engine.executor.cycles,
            "repro_engine_compile_cycles": stats.compile_cycles,
            "repro_engine_bailout_cycles": stats.bailout_cycles,
            "repro_engine_invalidation_cycles": stats.invalidation_cycles,
            "repro_engine_functions_hot": len(engine.states),
            "repro_spec_cache_entries": spec_entries,
            "repro_engine_ic_sites_mono": ic_sites["mono"],
            "repro_engine_ic_sites_poly": ic_sites["poly"],
            "repro_engine_ic_sites_mega": ic_sites["mega"],
        }
    )
    cost = payload["histograms"]["repro_compile_cycles_per_compile"]
    cost["counts"] = list(stats.compile_cost_buckets)
    cost["sum"] = stats.compile_cycles
    cost["count"] = stats.compiles
    return payload


# -- merge --------------------------------------------------------------------


def merge_payloads(payloads):
    """Fold per-process metric payloads into one exact fleet view.

    Counters, gauges and histogram cells (integer buckets, sums,
    counts) are summed exactly.  Summing is associative and commutative
    on integers, so the fold is order-independent: the per-worker
    payloads of ``bench --jobs N`` merge to exactly the single-process
    totals.
    """
    merged = empty_payload()
    for payload in payloads:
        for name, value in payload.get("counters", {}).items():
            if name in merged["counters"]:
                merged["counters"][name] += value
        for name, value in payload.get("gauges", {}).items():
            if name in merged["gauges"]:
                merged["gauges"][name] += value
        for name, cell in payload.get("histograms", {}).items():
            target = merged["histograms"].get(name)
            if target is None or list(cell["buckets"]) != target["buckets"]:
                continue
            for index, count in enumerate(cell["counts"]):
                target["counts"][index] += count
            target["sum"] += cell["sum"]
            target["count"] += cell["count"]
    return merged


# -- exporters ----------------------------------------------------------------


def _coerce_payload(source):
    """Accept a registry or an already-built payload dict."""
    if isinstance(source, MetricsRegistry):
        return source.as_dict()
    return source


def to_prometheus(source):
    """Render a registry or payload in Prometheus text exposition format.

    Deterministic: metrics appear in :data:`METRIC_SCHEMA` order, each
    with its ``# HELP`` and ``# TYPE`` preamble; histograms expose the
    standard cumulative ``_bucket{le="..."}`` series (a ``+Inf`` bucket
    included) plus ``_sum`` and ``_count``.
    """
    payload = _coerce_payload(source)
    lines = []
    for name, spec in METRIC_SCHEMA.items():
        kind = spec["type"]
        lines.append("# HELP %s %s" % (name, spec["help"]))
        lines.append("# TYPE %s %s" % (name, kind))
        if kind == "counter":
            lines.append("%s %d" % (name, payload["counters"].get(name, 0)))
        elif kind == "gauge":
            lines.append("%s %d" % (name, payload["gauges"].get(name, 0)))
        else:
            cell = payload["histograms"].get(name) or _empty_histogram(spec)
            cumulative = 0
            for bound, count in zip(cell["buckets"], cell["counts"]):
                cumulative += count
                lines.append('%s_bucket{le="%d"} %d' % (name, bound, cumulative))
            cumulative += cell["counts"][-1]
            lines.append('%s_bucket{le="+Inf"} %d' % (name, cumulative))
            lines.append("%s_sum %d" % (name, cell["sum"]))
            lines.append("%s_count %d" % (name, cell["count"]))
    return "\n".join(lines) + "\n"


def write_prometheus(source, path):
    """Write :func:`to_prometheus` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(to_prometheus(source))


def write_metrics_jsonl(source, path):
    """Write a registry or payload to ``path`` as one JSON Lines record.

    The record is the payload itself — ``counters``, ``gauges``,
    ``histograms`` — with sorted keys, so two identical runs write
    bit-identical text.
    """
    with open(path, "w") as handle:
        handle.write(json.dumps(_coerce_payload(source), sort_keys=True) + "\n")


# -- console dashboard (`repro top`) ------------------------------------------


def _rate(part, whole):
    return 100.0 * part / whole if whole else 0.0


def format_dashboard(source, title="repro top"):
    """Render the ``repro top`` console health dashboard.

    A static, deterministic panel: tier mix, compile/deopt health,
    specialization- and disk-cache hit rates and IC distribution.
    """
    payload = _coerce_payload(source)
    c = payload["counters"]
    g = payload["gauges"]
    lines = []
    lines.append("== %s ==" % title)
    total = g["repro_engine_total_cycles"]
    lines.append(
        "cycles     total %s  (interp %s · native %s · compile %s)"
        % (
            "{:,}".format(total),
            "{:,}".format(g["repro_engine_interp_cycles"]),
            "{:,}".format(g["repro_engine_native_cycles"]),
            "{:,}".format(g["repro_engine_compile_cycles"]),
        )
    )
    interp_calls = c["repro_engine_calls_interp_total"]
    native_calls = c["repro_engine_calls_native_total"]
    all_calls = interp_calls + native_calls
    lines.append(
        "tier mix   %d calls: native %.1f%% · interp %.1f%% · %d OSR entries"
        % (
            all_calls,
            _rate(native_calls, all_calls),
            _rate(interp_calls, all_calls),
            c["repro_engine_osr_enters_total"],
        )
    )
    lines.append(
        "compile    %d compiles (%d OSR, %d recompiles)"
        % (
            c["repro_engine_compiles_total"],
            c["repro_engine_osr_compiles_total"],
            c["repro_engine_recompilations_total"],
        )
    )
    lines.append(
        "deopt      %d bailouts (%d shape) · %d invalidations · %d retrains"
        % (
            c["repro_engine_bailouts_total"],
            c["repro_engine_shape_guard_bailouts_total"],
            c["repro_engine_invalidations_total"],
            c["repro_engine_retrains_total"],
        )
    )
    spec_hits = c["repro_spec_cache_hits_total"]
    spec_misses = c["repro_spec_cache_misses_total"]
    lines.append(
        "spec cache %d entries · %d hits / %d misses (%.1f%% hit rate) · %d stores"
        % (
            g["repro_spec_cache_entries"],
            spec_hits,
            spec_misses,
            _rate(spec_hits, spec_hits + spec_misses),
            c["repro_spec_cache_stores_total"],
        )
    )
    disk_hits = c["repro_cache_disk_hits_total"]
    disk_misses = c["repro_cache_disk_misses_total"]
    lines.append(
        "disk cache %d hits / %d misses (%.1f%% hit rate) · %d stores · "
        "%d evictions · %d corrupt"
        % (
            disk_hits,
            disk_misses,
            _rate(disk_hits, disk_hits + disk_misses),
            c["repro_cache_disk_stores_total"],
            c["repro_cache_disk_evictions_total"],
            c["repro_cache_disk_corrupt_total"],
        )
    )
    lines.append(
        "IC sites   mono %d · poly %d · mega %d · %d transitions"
        % (
            g["repro_engine_ic_sites_mono"],
            g["repro_engine_ic_sites_poly"],
            g["repro_engine_ic_sites_mega"],
            c["repro_engine_ic_transitions_total"],
        )
    )
    return "\n".join(lines)
