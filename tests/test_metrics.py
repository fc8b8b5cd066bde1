"""The deterministic metrics registry (docs/METRICS.md).

Four contracts under test:

* **closed schema** — every payload partitions exactly into
  ``METRIC_SCHEMA``'s counters, gauges and histograms, and a merge
  drops undeclared names;
* **a passive registry** — it holds numbers only (``finish`` loads the
  engine's payload into it), so repeat runs export bit-identical
  payloads on every backend;
* **zero cost when enabled** — attaching a registry cannot move any
  observable (output, stats, cycles, trace stream) on any of the three
  executor backends;
* **exact merge** — folding the per-worker payloads of a ``--jobs N``
  sweep yields the same numbers as a single-process sweep.

Plus the one ledger: every engine fact is counted in ``EngineStats``
whoever is watching, and ``metrics_payload`` computes the payload from
the engine's live state without writing anything.
"""

import io
import json
from types import SimpleNamespace

import pytest

from repro import FULL_SPEC, Engine
from repro.engine.config import CostModel
from repro.telemetry.metrics import (
    METRIC_SCHEMA,
    MetricsRegistry,
    empty_payload,
    format_dashboard,
    merge_payloads,
    metrics_payload,
    to_prometheus,
    write_metrics_jsonl,
)
from repro.telemetry.tracing import Tracer
from repro.tools.cli import main as cli_main

from tests.conftest import FAST

HOT_LOOP = """
function poly(a) { return a * a + 3 * a + 1; }
var s = 0;
for (var i = 0; i < 80; i++) s += poly(i % 4);
print(s);
"""

SHAPY = """
function getx(o) { return o.x; }
var a = {x: 1};
var b = {y: 9, x: 2};
var s = 0;
for (var i = 0; i < 60; i++) s += getx(i % 2 == 0 ? a : b);
print(s);
"""


class _Bench(object):
    """Minimal benchmark carrier for harness tests (picklable)."""

    def __init__(self, name, source):
        self.name = name
        self.source = source


SUITE = [_Bench("hot", HOT_LOOP), _Bench("shapy", SHAPY)]


def run_metered(source, **engine_kwargs):
    """One engine pass with a fresh registry; returns (printed, engine, reg)."""
    registry = MetricsRegistry()
    kwargs = dict(FAST)
    kwargs.update(engine_kwargs)
    engine = Engine(config=FULL_SPEC, metrics=registry, **kwargs)
    printed = engine.run_source(source)
    return printed, engine, registry


class TestRegistrySchema:
    def test_payload_partitions_the_schema(self):
        payload = empty_payload()
        counters = set(payload["counters"])
        gauges = set(payload["gauges"])
        histograms = set(payload["histograms"])
        assert counters | gauges | histograms == set(METRIC_SCHEMA)
        assert not (counters & gauges or counters & histograms or gauges & histograms)
        for name in counters:
            assert METRIC_SCHEMA[name]["type"] == "counter"
        for name in histograms:
            assert list(payload["histograms"][name]["buckets"]) == list(
                METRIC_SCHEMA[name]["buckets"]
            )

    def test_compile_cost_bucket_boundaries(self):
        # The ledger buckets each compile's cost as Prometheus does: a
        # cost on a bound counts in that bound's bucket.
        stats = Engine().stats
        bounds = METRIC_SCHEMA["repro_compile_cycles_per_compile"]["buckets"]
        sizes = {"lir_instructions": 0, "intervals": 0}
        for cycles in (bounds[0], bounds[0] + 1, bounds[-1] + 1):
            stats.record_compile(
                SimpleNamespace(code_id=1, name="f"),
                SimpleNamespace(size=1),
                cycles - CostModel.compile_base,
                sizes,
                osr=False,
            )
        counts = stats.compile_cost_buckets
        assert (counts[0], counts[1], counts[-1], sum(counts)) == (1, 1, 1, 3)
        assert stats.compile_cycles == bounds[0] * 2 + 1 + bounds[-1] + 1


class TestEngineIntegration:
    def test_counters_mirror_the_stats_ledger(self):
        printed, engine, registry = run_metered(HOT_LOOP)
        stats = engine.stats
        c = registry.counters
        assert printed and stats.compiles > 0
        assert c["repro_engine_compiles_total"] == stats.compiles
        assert c["repro_engine_bailouts_total"] == stats.bailouts
        assert c["repro_engine_invalidations_total"] == stats.invalidations
        assert c["repro_engine_calls_interp_total"] == stats.interp_calls
        assert c["repro_engine_calls_native_total"] > 0
        assert registry.gauges["repro_engine_total_cycles"] == stats.total_cycles

    @pytest.mark.parametrize("backend", ["simple", "closure", "whole"])
    def test_every_compile_is_charged_to_total_cycles(self, backend):
        """Each compile's cost is observed once, and the observations sum
        to the one compile counter that ``total_cycles`` adds in whole."""
        _, engine, registry = run_metered(CHURN, executor_backend=backend)
        stats = engine.stats
        assert stats.compiles > 1
        cost = registry.histograms["repro_compile_cycles_per_compile"]
        assert cost["count"] == stats.compiles
        assert cost["sum"] == stats.compile_cycles > 0
        assert registry.gauges["repro_engine_compile_cycles"] == stats.compile_cycles
        ledger = stats.as_dict()
        assert ledger["total_cycles"] == sum(
            ledger[part]
            for part in (
                "interp_cycles",
                "native_cycles",
                "compile_cycles",
                "bailout_cycles",
                "invalidation_cycles",
            )
        )
        assert registry.gauges["repro_engine_total_cycles"] == stats.total_cycles

    def test_spec_cache_and_ic_instrumentation(self):
        _, engine, registry = run_metered(SHAPY)
        c = registry.counters
        g = registry.gauges
        assert c["repro_spec_cache_stores_total"] > 0
        assert c["repro_spec_cache_hits_total"] + c["repro_spec_cache_misses_total"] > 0
        assert g["repro_spec_cache_entries"] > 0
        assert g["repro_engine_functions_hot"] == len(engine.states)
        # getx's property site saw two shapes: a polymorphic IC.
        assert g["repro_engine_ic_sites_poly"] >= 1
        assert c["repro_engine_ic_transitions_total"] >= 2

    def test_repeat_runs_export_identical_payloads(self, tmp_path):
        paths = []
        for run in ("first", "second"):
            _, _, registry = run_metered(HOT_LOOP)
            paths.append(tmp_path / run)
            write_metrics_jsonl(registry, str(paths[-1]))
        assert paths[0].read_text() == paths[1].read_text()


CHURN = """
function area(s) { return s.w * s.h; }
function twice(n) { return n + n; }
var shapes = [{w: 1, h: 2}, {h: 3, w: 4, d: 5}, {d: 1, w: 6, h: 7}];
var s = 0;
for (var i = 0; i < 90; i++) s += area(shapes[i % 3]) + twice(i % 5);
print(s);
"""


#: Spec-cache hits, misses and stores, an OSR entry and (under the
#: paper's policy) a shape retrain, all under ``FAST``.
COUNTED = """
function area(s) { return s.w * s.h; }
function sq(n) { return n * n; }
var shapes = [{w: 1, h: 2}, {h: 3, w: 4, d: 5}, {d: 1, w: 6, h: 7}];
var s = 0;
for (var i = 0; i < 90; i++) s += area(shapes[i % 3]) + sq(7);
print(s);
"""

#: Each counted fact's trace event -> the ``EngineStats`` counter it bumps.
COUNTED_EVENTS = {
    ("cache", "hit"): "spec_cache_hits",
    ("cache", "miss"): "spec_cache_misses",
    ("cache", "store"): "spec_cache_stores",
    ("osr", "enter"): "osr_enters",
}


class TestOneLedger:
    @pytest.mark.parametrize(
        "kwargs", [{}, {"spec_cache_capacity": 2}, {"executor_backend": "closure"}]
    )
    def test_counted_events_equal_their_counters(self, kwargs):
        """With a tracer on, every call takes the policy path, so each
        counted fact is one event and one increment of its counter."""
        from repro.workloads import ALL_SUITES

        totals = dict.fromkeys(COUNTED_EVENTS.values(), 0)
        picked = (
            "math-cordic",
            "string-base64",
            "audio-beat-detection",
            "imaging-gaussian-blur",
            "spec-churn",
            "crypto-sha1",
        )
        benchmarks = [b for suite in ALL_SUITES.values() for b in suite if b.name in picked]
        assert len(benchmarks) == len(picked)
        for benchmark in benchmarks:
            tracer = Tracer(channels=("cache", "osr"))
            engine = Engine(config=FULL_SPEC, tracer=tracer, **kwargs)
            engine.run_source(benchmark.source)
            ledger = engine.stats.as_dict()
            seen = {}
            for event in tracer.events:
                key = (event["ch"], event["event"])
                seen[key] = seen.get(key, 0) + 1
            for key, counter in COUNTED_EVENTS.items():
                assert ledger[counter] == seen.get(key, 0), (benchmark.name, counter)
                totals[counter] += seen.get(key, 0)
        assert all(totals.values()), totals

    @pytest.mark.parametrize("backend", ["simple", "whole"])
    @pytest.mark.parametrize(
        "kwargs", [{}, {"deoptless": True, "spec_cache_capacity": 2}]
    )
    def test_the_ledger_is_the_same_for_every_reader(self, backend, kwargs):
        """Every fact is counted unconditionally: a tracer or a registry
        attached changes no ``stats.as_dict()`` entry, the counters the
        metrics are computed from included."""

        def ledger(**sinks):
            engine = Engine(
                config=FULL_SPEC, executor_backend=backend, **dict(FAST, **kwargs, **sinks)
            )
            engine.run_source(COUNTED)
            return engine.stats.as_dict()

        plain = ledger()
        assert plain == ledger(tracer=Tracer())
        assert plain == ledger(metrics=MetricsRegistry())
        assert plain == ledger(tracer=Tracer(), metrics=MetricsRegistry())
        for counter in COUNTED_EVENTS.values():
            assert plain[counter] > 0, counter
        assert plain["retrains"] > 0 or kwargs
        assert sum(plain["compile_cost_buckets"]) == plain["compiles"]

    def test_the_payload_is_a_pure_read_of_the_engine(self):
        """``metrics_payload`` writes nothing: asked twice it answers the
        same, leaves the ledger alone, and is what ``finish`` loads into
        an attached registry."""
        _, engine, registry = run_metered(COUNTED)
        ledger = engine.stats.as_dict()
        first = metrics_payload(engine)
        assert metrics_payload(engine) == first == registry.as_dict()
        assert engine.stats.as_dict() == ledger
        assert first["counters"]["repro_engine_retrains_total"] == ledger["retrains"]


class TestZeroCostWhenEnabled:
    @pytest.mark.parametrize("backend", ["simple", "closure", "whole"])
    def test_metrics_move_no_observable(self, backend):
        """Output, stats, cycles and the trace stream are identical with
        the registry attached or absent, on every executor backend."""

        def run(metrics):
            tracer = Tracer()
            engine = Engine(
                config=FULL_SPEC,
                executor_backend=backend,
                metrics=metrics,
                tracer=tracer,
                **FAST
            )
            printed = engine.run_source(SHAPY)
            return printed, engine, list(tracer.events)

        plain_printed, plain_engine, plain_events = run(None)
        metered_printed, metered_engine, metered_events = run(MetricsRegistry())
        assert metered_printed == plain_printed
        assert metered_engine.stats.total_cycles == plain_engine.stats.total_cycles
        assert metered_engine.stats.summary() == plain_engine.stats.summary()
        assert metered_events == plain_events


class TestMergeExactness:
    def test_merge_sums_counters_and_folds_gauges(self):
        left = empty_payload()
        right = empty_payload()
        left["counters"]["repro_engine_compiles_total"] = 3
        right["counters"]["repro_engine_compiles_total"] = 4
        left["gauges"]["repro_spec_cache_entries"] = 5
        right["gauges"]["repro_spec_cache_entries"] = 2
        left["gauges"]["repro_serving_tenants"] = 1
        right["gauges"]["repro_serving_tenants"] = 1
        name = "repro_compile_cycles_per_compile"
        left["histograms"][name].update(counts=[2, 0, 0, 0, 0, 0, 0, 0], sum=1500, count=2)
        right["histograms"][name].update(counts=[0, 0, 0, 0, 0, 0, 0, 1], sum=10 ** 9, count=1)
        merged = merge_payloads([left, right])
        assert merged["counters"]["repro_engine_compiles_total"] == 7
        assert merged["gauges"]["repro_spec_cache_entries"] == 7
        assert merged["gauges"]["repro_serving_tenants"] == 2
        cell = merged["histograms"][name]
        assert cell["counts"] == [2, 0, 0, 0, 0, 0, 0, 1]
        assert (cell["count"], cell["sum"]) == (3, 1500 + 10 ** 9)
        assert set(merged) == {"counters", "gauges", "histograms"}

    def test_merge_ignores_undeclared_names(self):
        payload = empty_payload()
        payload["counters"]["not_a_metric"] = 99
        merged = merge_payloads([payload])
        assert "not_a_metric" not in merged["counters"]

    def test_merge_is_order_independent(self):
        payloads = []
        for seed in (1, 2, 3):
            payload = empty_payload()
            payload["counters"]["repro_spec_cache_hits_total"] = seed
            payload["gauges"]["repro_engine_total_cycles"] = seed * 100
            payloads.append(payload)
        forward = merge_payloads(payloads)
        backward = merge_payloads(list(reversed(payloads)))
        assert forward == backward

    def test_jobs4_sweep_merges_to_single_process_totals(self):
        """The ISSUE's aggregation-exactness check: a ``--jobs 4`` sweep's
        per-worker payloads fold to exactly the serial sweep's numbers."""
        from repro.bench.harness import run_suite_sweep

        def fleet(jobs):
            sweep = run_suite_sweep(
                "micro",
                SUITE,
                configs=[FULL_SPEC],
                engine_kwargs=dict(FAST),
                jobs=jobs,
                collect_metrics=True,
            )
            payloads = [
                run.metrics
                for by_bench in sweep.runs.values()
                for run in by_bench.values()
            ]
            assert len(payloads) == 2 * len(SUITE)
            assert all(payload is not None for payload in payloads)
            return merge_payloads(payloads)

        serial = fleet(jobs=1)
        parallel = fleet(jobs=4)
        assert parallel == serial
        assert serial["counters"]["repro_engine_compiles_total"] > 0


class TestExporters:
    def test_prometheus_exposition_parses(self):
        _, _, registry = run_metered(HOT_LOOP)
        text = to_prometheus(registry)
        samples = {}
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            samples[name] = int(value)
        for name, spec in METRIC_SCHEMA.items():
            assert "# HELP %s %s" % (name, spec["help"]) in text
            assert "# TYPE %s %s" % (name, spec["type"]) in text
            if spec["type"] == "histogram":
                cumulative = [
                    samples['%s_bucket{le="%d"}' % (name, bound)]
                    for bound in spec["buckets"]
                ]
                assert cumulative == sorted(cumulative)
                assert samples['%s_bucket{le="+Inf"}' % name] == samples[
                    "%s_count" % name
                ]
            else:
                assert name in samples

    def test_jsonl_is_the_payload_as_one_sorted_record(self, tmp_path):
        _, _, registry = run_metered(HOT_LOOP)
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(registry, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert lines[0] == json.dumps(record, sort_keys=True)
        assert record == registry.as_dict()

    def test_dashboard_renders_health_lines(self):
        _, _, registry = run_metered(HOT_LOOP)
        panel = format_dashboard(registry.as_dict(), title="unit test")
        assert "== unit test ==" in panel
        assert "tier mix" in panel
        assert "spec cache" in panel
        assert "disk cache" in panel
        assert "IC sites" in panel

    def test_dashboard_tolerates_the_empty_payload(self):
        assert "tier mix" in format_dashboard(empty_payload())


class TestMetricsCLI:
    def run_cli(self, argv):
        out = io.StringIO()
        return cli_main(argv, out=out), out.getvalue()

    @pytest.fixture
    def script(self, tmp_path):
        path = tmp_path / "prog.js"
        path.write_text(HOT_LOOP)
        return str(path)

    def test_metrics_defaults_to_prometheus_text(self, script):
        code, output = self.run_cli(["metrics", script])
        assert code == 0
        assert output.startswith("# HELP ")
        assert "# TYPE repro_engine_total_cycles gauge" in output
        assert "# TYPE repro_compile_cycles_per_compile histogram" in output

    def test_metrics_writes_exports(self, script, tmp_path):
        prom = tmp_path / "metrics.prom"
        jsonl = tmp_path / "metrics.jsonl"
        code, output = self.run_cli(
            [
                "metrics",
                script,
                "--prometheus",
                str(prom),
                "--jsonl",
                str(jsonl),
            ]
        )
        assert code == 0
        assert "wrote Prometheus exposition" in output
        assert prom.read_text().startswith("# HELP ")
        lines = jsonl.read_text().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"counters", "gauges", "histograms"}

    def test_metrics_json_dump(self, script):
        code, output = self.run_cli(["metrics", script, "--json"])
        assert code == 0
        payload = json.loads(output)
        assert set(payload["counters"]) == {
            name
            for name, spec in METRIC_SCHEMA.items()
            if spec["type"] == "counter"
        }

    def test_top_dashboard(self, script):
        code, output = self.run_cli(["top", script])
        assert code == 0
        assert "repro top" in output
        assert "tier mix" in output

    @pytest.mark.parametrize("command", ["metrics", "top"])
    def test_there_is_no_snapshot_interval(self, command, script):
        with pytest.raises(SystemExit):
            self.run_cli([command, script, "--interval", "2000"])
