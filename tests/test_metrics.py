"""The deterministic metrics registry (docs/METRICS.md).

Four contracts under test:

* **closed schema** — the registry rejects undeclared names and kind
  mismatches at record time, and every payload partitions exactly into
  ``METRIC_SCHEMA``'s counters, gauges and histograms;
* **deterministic snapshots** — the time series is a function of the
  engine's cycle clock alone, so repeat runs export bit-identical
  JSONL on every backend;
* **zero cost when enabled** — attaching a registry cannot move any
  observable (output, stats, cycles, trace stream) on any of the three
  executor backends;
* **exact merge** — folding the per-worker payloads of a ``--jobs N``
  sweep yields the same numbers as a single-process sweep.

Plus the collection model: every engine metric has exactly one source
(the emit point's event table, the collector, or a named direct site).
"""

import io
import json

import pytest

from repro import FULL_SPEC, Engine
from repro.engine.runtime_engine import _EVENT_COUNTERS, _MIRRORED_METRICS
from repro.telemetry.metrics import (
    METRIC_SCHEMA,
    MetricsRegistry,
    empty_payload,
    format_dashboard,
    merge_payloads,
    snapshots_to_jsonl,
    to_prometheus,
)
from repro.telemetry.tracing import EVENT_SCHEMA, Tracer
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


def run_metered(source, interval=0, **engine_kwargs):
    """One engine pass with a fresh registry; returns (printed, engine, reg)."""
    registry = MetricsRegistry(snapshot_interval=interval)
    kwargs = dict(FAST)
    kwargs.update(engine_kwargs)
    engine = Engine(config=FULL_SPEC, metrics=registry, **kwargs)
    printed = engine.run_source(source)
    return printed, engine, registry


class TestRegistrySchema:
    def test_unknown_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown metric"):
            registry.inc("repro_engine_nope_total")
        with pytest.raises(ValueError, match="unknown metric"):
            registry.set_gauge("bogus", 1)
        with pytest.raises(ValueError, match="unknown metric"):
            registry.observe("bogus_histogram", 5)

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="is a gauge, not a counter"):
            registry.inc("repro_engine_total_cycles")
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            registry.set_gauge("repro_engine_compiles_total", 1)
        with pytest.raises(ValueError, match="is a counter, not a histogram"):
            registry.observe("repro_engine_compiles_total", 1)

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

    def test_observe_bucket_boundaries(self):
        registry = MetricsRegistry()
        name = "repro_compile_cycles_per_compile"
        bounds = METRIC_SCHEMA[name]["buckets"]
        registry.observe(name, bounds[0])  # on the bound: first bucket
        registry.observe(name, bounds[0] + 1)  # past it: second bucket
        registry.observe(name, bounds[-1] + 1)  # past the last: +Inf slot
        cell = registry.histograms[name]
        assert cell["counts"][0] == 1
        assert cell["counts"][1] == 1
        assert cell["counts"][-1] == 1
        assert cell["count"] == 3
        assert cell["sum"] == bounds[0] + bounds[0] + 1 + bounds[-1] + 1


class TestSnapshotBoundaries:
    def test_at_most_one_snapshot_per_crossing(self):
        now = [0]
        registry = MetricsRegistry(snapshot_interval=100, clock=lambda: now[0])
        registry.maybe_snapshot()
        assert registry.snapshots == []
        now[0] = 99
        registry.maybe_snapshot()
        assert registry.snapshots == []
        now[0] = 100
        registry.maybe_snapshot()
        registry.maybe_snapshot()  # same instant: no second snapshot
        assert [snap["ts"] for snap in registry.snapshots] == [100]
        now[0] = 550  # jumped 4 boundaries: still just one snapshot
        registry.maybe_snapshot()
        assert [snap["ts"] for snap in registry.snapshots] == [100, 550]
        now[0] = 560  # inside the 500..600 window again: nothing
        registry.maybe_snapshot()
        assert len(registry.snapshots) == 2
        registry.finalize()  # closing snapshot regardless of boundary
        assert [snap["ts"] for snap in registry.snapshots] == [100, 550, 560]
        assert [snap["seq"] for snap in registry.snapshots] == [0, 1, 2]

    def test_interval_zero_disables_the_series(self):
        now = [10 ** 9]
        registry = MetricsRegistry(snapshot_interval=0, clock=lambda: now[0])
        registry.maybe_snapshot()
        assert registry.snapshots == []
        registry.finalize()
        assert len(registry.snapshots) == 1

    def test_a_later_finalize_replaces_the_closing_snapshot(self):
        now = [0]
        registry = MetricsRegistry(snapshot_interval=100, clock=lambda: now[0])
        now[0] = 150
        registry.maybe_snapshot()
        registry.finalize()
        now[0] = 180
        registry.finalize()  # same window: replaces, does not append
        assert [snap["ts"] for snap in registry.snapshots] == [150, 180]
        now[0] = 250  # an interval crossing supersedes it too
        registry.maybe_snapshot()
        registry.finalize()
        assert [snap["ts"] for snap in registry.snapshots] == [150, 250, 250]
        assert [snap["seq"] for snap in registry.snapshots] == [0, 1, 2]

    def test_collectors_run_before_every_snapshot(self):
        registry = MetricsRegistry()
        registry.collectors.append(
            lambda: registry.set_gauge("repro_engine_functions_hot", 7)
        )
        registry.finalize()
        assert registry.snapshots[0]["gauges"]["repro_engine_functions_hot"] == 7


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

    def test_periodic_snapshots_are_deterministic(self):
        _, _, first = run_metered(HOT_LOOP, interval=2000)
        _, _, second = run_metered(HOT_LOOP, interval=2000)
        assert len(first.snapshots) > 1
        timestamps = [snap["ts"] for snap in first.snapshots]
        assert timestamps == sorted(timestamps)
        assert snapshots_to_jsonl(first.as_dict()) == snapshots_to_jsonl(
            second.as_dict()
        )


#: Sampled by ``Engine._collect_metrics`` from live state (no ledger
#: attribute holds them), and recorded in line where the fact is decided
#: (``_note_bailout``, ``_produce``).
COMPUTED_METRICS = {
    "repro_engine_calls_native_total",
    "repro_engine_total_cycles",
    "repro_engine_interp_cycles",
    "repro_engine_functions_hot",
    "repro_spec_cache_entries",
    "repro_engine_ic_sites_mono",
    "repro_engine_ic_sites_poly",
    "repro_engine_ic_sites_mega",
}
DIRECT_METRICS = {
    "repro_engine_retrains_total",
    "repro_compile_cycles_per_compile",
}

CHURN = """
function area(s) { return s.w * s.h; }
function twice(n) { return n + n; }
var shapes = [{w: 1, h: 2}, {h: 3, w: 4, d: 5}, {d: 1, w: 6, h: 7}];
var s = 0;
for (var i = 0; i < 90; i++) s += area(shapes[i % 3]) + twice(i % 5);
print(s);
"""


class _SourceRecorder(MetricsRegistry):
    """A registry that remembers which API fed each metric."""

    def __init__(self):
        MetricsRegistry.__init__(self)
        self.counted = set()
        self.collected = set()

    def inc(self, name, amount=1):
        self.counted.add(name)
        MetricsRegistry.inc(self, name, amount)

    def observe(self, name, value):
        self.counted.add(name)
        MetricsRegistry.observe(self, name, value)

    def set_counter(self, name, value):
        self.collected.add(name)
        MetricsRegistry.set_counter(self, name, value)

    def set_gauge(self, name, value):
        self.collected.add(name)
        MetricsRegistry.set_gauge(self, name, value)


class TestOneSourcePerMetric:
    def test_event_counter_table_is_in_both_schemas(self):
        for (channel, event), counter in _EVENT_COUNTERS.items():
            assert event in EVENT_SCHEMA[channel]
            assert METRIC_SCHEMA[counter]["type"] == "counter"

    def test_mirror_table_names_live_ledger_attributes(self, tmp_path):
        from repro.cache import DiskCodeCache

        engine = Engine(code_cache=DiskCodeCache(root=str(tmp_path)))
        for name, ledger, attribute in _MIRRORED_METRICS:
            assert METRIC_SCHEMA[name]["type"] in ("counter", "gauge")
            assert isinstance(getattr(getattr(engine, ledger), attribute), int)

    def test_the_sources_partition_the_engine_metrics(self):
        counted = set(_EVENT_COUNTERS.values())
        mirrored = [name for name, _, _ in _MIRRORED_METRICS]
        sources = [counted, set(mirrored), COMPUTED_METRICS, DIRECT_METRICS]
        assert len(counted) == len(_EVENT_COUNTERS)
        assert len(mirrored) == len(set(mirrored))
        assert sum(len(source) for source in sources) == len(set().union(*sources))
        assert set().union(*sources) == {
            name for name in METRIC_SCHEMA if not name.startswith("repro_serving_")
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"deoptless": True},
            {"spec_cache_capacity": 2},
            {"deoptless": True, "spec_cache_capacity": 2},
        ],
    )
    def test_no_metric_is_both_counted_and_collected(self, kwargs, tmp_path):
        from repro.cache import DiskCodeCache

        recorder = _SourceRecorder()
        engine = Engine(
            config=FULL_SPEC,
            metrics=recorder,
            code_cache=DiskCodeCache(root=str(tmp_path)),
            **dict(FAST, **kwargs)
        )
        engine.run_source(CHURN)
        assert not recorder.counted & recorder.collected
        assert recorder.counted <= set(_EVENT_COUNTERS.values()) | DIRECT_METRICS
        expected = {name for name, _, _ in _MIRRORED_METRICS} | COMPUTED_METRICS
        assert recorder.collected == expected
        if kwargs == {}:
            assert "repro_engine_retrains_total" in recorder.counted
        if kwargs.get("deoptless"):
            assert engine.stats.deoptless_misses > 0

    @pytest.mark.parametrize(
        "kwargs", [{}, {"spec_cache_capacity": 2}, {"executor_backend": "closure"}]
    )
    def test_counted_events_equal_their_counters(self, kwargs):
        """With a tracer on, every call takes the policy path, so each
        counted fact is one event and one increment — by construction."""
        from repro.workloads import ALL_SUITES

        totals = dict.fromkeys(_EVENT_COUNTERS.values(), 0)
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
            registry = MetricsRegistry()
            engine = Engine(
                config=FULL_SPEC, tracer=tracer, metrics=registry, **kwargs
            )
            engine.run_source(benchmark.source)
            seen = {}
            for event in tracer.events:
                key = (event["ch"], event["event"])
                seen[key] = seen.get(key, 0) + 1
            for key, counter in _EVENT_COUNTERS.items():
                assert registry.counters[counter] == seen.get(key, 0), (
                    benchmark.name,
                    counter,
                )
                totals[counter] += seen.get(key, 0)
        assert all(totals.values()), totals


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
        metered_printed, metered_engine, metered_events = run(
            MetricsRegistry(snapshot_interval=1000)
        )
        assert metered_printed == plain_printed
        assert metered_engine.stats.total_cycles == plain_engine.stats.total_cycles
        assert metered_engine.stats.summary() == plain_engine.stats.summary()
        assert metered_events == plain_events


class TestMergeExactness:
    def test_merge_sums_counters_and_folds_gauges(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        left.inc("repro_engine_compiles_total", 3)
        right.inc("repro_engine_compiles_total", 4)
        left.set_gauge("repro_spec_cache_entries", 5)  # merge: sum
        right.set_gauge("repro_spec_cache_entries", 2)
        left.set_gauge("repro_serving_queue_depth_high_water", 3)  # merge: max
        right.set_gauge("repro_serving_queue_depth_high_water", 9)
        left.observe("repro_serving_queue_wait_cycles", 300)
        right.observe("repro_serving_queue_wait_cycles", 300)
        right.observe("repro_serving_queue_wait_cycles", 10 ** 9)
        merged = merge_payloads([left.as_dict(), right.as_dict()])
        assert merged["counters"]["repro_engine_compiles_total"] == 7
        assert merged["gauges"]["repro_spec_cache_entries"] == 7
        assert merged["gauges"]["repro_serving_queue_depth_high_water"] == 9
        cell = merged["histograms"]["repro_serving_queue_wait_cycles"]
        assert cell["count"] == 3
        assert cell["counts"][2] == 2  # two 300s in the (256, 1024] bucket
        assert cell["counts"][-1] == 1  # the outlier in +Inf
        assert cell["sum"] == 600 + 10 ** 9
        assert merged["snapshots"] == []  # time series never merge

    def test_merge_ignores_undeclared_names(self):
        payload = empty_payload()
        payload["counters"]["not_a_metric"] = 99
        merged = merge_payloads([payload])
        assert "not_a_metric" not in merged["counters"]

    def test_merge_is_order_independent(self):
        payloads = []
        for seed in (1, 2, 3):
            registry = MetricsRegistry()
            registry.inc("repro_spec_cache_hits_total", seed)
            registry.set_gauge("repro_serving_queue_depth_high_water", seed * 100)
            payloads.append(registry.as_dict())
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

    def test_jsonl_lines_are_sorted_json(self):
        _, _, registry = run_metered(HOT_LOOP, interval=2000)
        text = snapshots_to_jsonl(registry.as_dict())
        lines = text.splitlines()
        assert len(lines) == len(registry.snapshots) >= 1
        for line in lines:
            record = json.loads(line)
            assert line == json.dumps(record, sort_keys=True)
            assert set(record) == {"ts", "seq", "counters", "gauges", "histograms"}

    def test_dashboard_renders_health_lines(self):
        _, _, registry = run_metered(HOT_LOOP, interval=2000)
        panel = format_dashboard(registry.as_dict(), title="unit test")
        assert "== unit test ==" in panel
        assert "tier mix" in panel
        assert "spec cache" in panel
        assert "disk cache" in panel
        assert "IC sites" in panel
        assert "cycle rate" in panel  # the snapshot sparkline section

    def test_dashboard_tolerates_the_empty_payload(self):
        panel = format_dashboard(empty_payload())
        assert "tier mix" in panel and "cycle rate" not in panel


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
                "--interval",
                "2000",
                "--prometheus",
                str(prom),
                "--jsonl",
                str(jsonl),
            ]
        )
        assert code == 0
        assert "wrote Prometheus exposition" in output
        assert prom.read_text().startswith("# HELP ")
        lines = jsonl.read_text().strip().splitlines()
        assert lines and all(json.loads(line) for line in lines)

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
