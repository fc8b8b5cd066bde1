"""The cycle baseline and its one gate (repro.bench.cycles / compare).

The contract under test, straight from docs/METRICS.md: everything in
``BENCH_cycles.json`` is deterministic, so it compares with **zero
tolerance** — a planted one-cycle regression is flagged while two runs
of the same tree compare clean — ``rate`` rows read the other way,
documented bounds and identity flags hold whatever the baseline says,
and exact work counters are report-only.
"""

import copy
import io
import json
import os

import pytest

from repro.bench import cycles
from repro.bench.compare import compare_results, format_compare
from repro.engine.runtime_engine import (
    EXECUTOR_BACKENDS,
    Engine,
    resolve_executor_backend,
)
from repro.tools.cli import main as cli_main

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_cycles.json")


def make_results():
    """A minimal result dict in the BENCH_cycles.json shape."""
    return {
        "deoptless": {
            "suite": "churn",
            "off_cycles": 2000,
            "on_cycles": 1500,
            "cycle_ratio": 0.75,
            "off_invalidations": 46,
            "on_invalidations": 0,
            "invalidation_ratio": 0.0,
            "deoptless_reentries": 21,
            "deoptless_misses": 36,
            "deoptless_generalized_compiles": 21,
            "outputs_identical": True,
            "backends_identical": True,
            "benchmarks": {
                "spec-churn": {"off_cycles": 1200, "on_cycles": 900, "cycle_ratio": 0.75},
                "shape-flip": {"off_cycles": 800, "on_cycles": 600, "cycle_ratio": 0.75},
            },
        },
        "serving": {
            "requests": 160,
            "tenants": 6,
            "p50_service_cycles": 43000,
            "p99_service_cycles": 190000,
            "total_service_cycles": 8400000,
            "cold_hit_rate": 0.58,
            "warm_hit_rate": 1.0,
            "cycles_identical": True,
        },
    }


def by_metric(report, metric):
    return [d for d in report["deltas"] if d["metric"] == metric]


def failing(report):
    """(section, metric, status) of every row that fails the gate."""
    return [
        (d["section"], d["metric"], d["status"])
        for d in report["deltas"]
        if d["status"] in ("regressed", "missing")
    ]


def plant(results, section, path, value):
    """A copy of ``results`` with ``value`` at dotted ``path`` (deleted if None)."""
    planted = copy.deepcopy(results)
    tree = planted[section]
    *parents, leaf = path.split(".")
    for part in parents:
        tree = tree[part]
    if value is None:
        del tree[leaf]
    else:
        tree[leaf] = value
    return planted


@pytest.fixture(scope="module")
def measured():
    """Every section measured once, with every Engine the bench
    constructs recorded by backend."""
    constructed = []

    class RecordingEngine(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            constructed.append(self.executor_backend)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "Engine", RecordingEngine)
        return cycles.run(), constructed


class TestCheckedInBaseline:
    """ROADMAP's "every BENCH cycle section unchanged", mechanically."""

    def test_this_tree_reproduces_the_checked_in_baseline(self, measured):
        results, _ = measured
        report = compare_results(results, cycles.load_json(BASELINE_PATH))
        assert [d for d in report["deltas"] if d["status"] != "ok"] == []
        assert {d["section"] for d in report["deltas"]} == {
            section.name for section in cycles.SECTIONS
        }

    def test_baseline_holds_exactly_the_tables_sections(self):
        baseline = cycles.load_json(BASELINE_PATH)
        assert sorted(baseline) == sorted(section.key for section in cycles.SECTIONS)

    def test_deoptless_section_runs_every_registered_backend(self, measured):
        _, constructed = measured
        assert set(constructed) == set(EXECUTOR_BACKENDS)

    def test_divergent_reference_backend_flips_backends_identical(self, monkeypatch):
        default = resolve_executor_backend()

        class OffByOne(Engine):
            def run_source(self, source):
                output = super().run_source(source)
                if self.executor_backend != default:
                    self.stats.bailout_cycles += 1
                return output

        monkeypatch.setattr(cycles, "Engine", OffByOne)
        section = cycles.measure_deoptless_cycles()
        assert section["backends_identical"] is False
        assert section["outputs_identical"] is True
        report = compare_results({"deoptless": section}, cycles.load_json(BASELINE_PATH))
        assert failing(report) == [("deoptless", "backends_identical", "regressed")]

    def test_every_gated_row_catches_the_smallest_fault(self):
        baseline = cycles.load_json(BASELINE_PATH)
        for section in cycles.SECTIONS:
            tree = baseline[section.key]
            for path, kind, _ in cycles.expand_rows(section, tree):
                if kind == "exact":
                    continue
                value = cycles.lookup(tree, path)
                step = 1 if isinstance(value, int) else 0.00001
                worse = {"cycles": value + step, "rate": value - step, "flag": False}[kind]
                for fault, status in ((worse, "regressed"), (None, "missing")):
                    report = compare_results(
                        plant(baseline, section.key, path, fault), baseline
                    )
                    assert failing(report) == [(section.name, path, status)]

    # The acceptance limits and the zero-baseline rises neither retired
    # gate caught: each alone fails the gate and names its row.
    @pytest.mark.parametrize(
        "section, path, value",
        [
            ("deoptless", "cycle_ratio", 0.81),
            ("deoptless", "invalidation_ratio", 0.4),
            ("deoptless", "on_invalidations", 18),
            ("serving", "warm_hit_rate", 0.89),
            ("deoptless", "benchmarks", None),
        ],
    )
    def test_each_planted_fault_fails_the_gate_and_names_the_row(
        self, section, path, value
    ):
        baseline = cycles.load_json(BASELINE_PATH)
        report = compare_results(plant(baseline, section, path, value), baseline)
        assert report["status"] == "fail"
        named = {metric for _, metric, _ in failing(report)}
        assert named and all(metric.startswith(path) for metric in named)


class TestClassification:
    def test_identical_runs_compare_clean(self):
        report = compare_results(make_results(), make_results())
        assert report["status"] == "pass"
        assert report["regressions"] == 0
        assert report["improvements"] == 0
        assert report["changes"] == 0
        assert {d["status"] for d in report["deltas"]} == {"ok"}
        assert {d["section"] for d in report["deltas"]} == {"deoptless", "serving"}

    def test_planted_10pct_cycle_regression_is_flagged(self):
        current = make_results()
        row = current["deoptless"]["benchmarks"]["spec-churn"]
        row["on_cycles"] = int(row["on_cycles"] * 1.10)
        report = compare_results(current, make_results())
        assert report["status"] == "fail"
        (regressed,) = [d for d in report["deltas"] if d["status"] == "regressed"]
        assert regressed["metric"] == "benchmarks.spec-churn.on_cycles"
        assert regressed["kind"] == "cycles"
        assert regressed["delta_pct"] == pytest.approx(10.0, abs=0.01)

    def test_cycles_have_zero_tolerance(self):
        current = make_results()
        current["deoptless"]["benchmarks"]["spec-churn"]["off_cycles"] += 1
        report = compare_results(current, make_results())
        assert report["regressions"] == 1  # a single cycle is a regression
        current["deoptless"]["benchmarks"]["spec-churn"]["off_cycles"] -= 2
        report = compare_results(current, make_results())
        assert report["status"] == "pass" and report["improvements"] == 1

    def test_a_rise_from_a_zero_baseline_is_a_regression(self):
        for metric, value in (("on_invalidations", 18), ("invalidation_ratio", 0.4)):
            report = compare_results(
                plant(make_results(), "deoptless", metric, value), make_results()
            )
            assert failing(report) == [("deoptless", metric, "regressed")]
            assert by_metric(report, metric)[0]["delta_pct"] is None

    def test_ratio_direction_higher_is_better(self):
        baseline = make_results()
        report = compare_results(plant(baseline, "serving", "cold_hit_rate", 0.57), baseline)
        assert [d["status"] for d in by_metric(report, "cold_hit_rate")] == ["regressed"]
        report = compare_results(plant(baseline, "serving", "cold_hit_rate", 0.6), baseline)
        assert [d["status"] for d in by_metric(report, "cold_hit_rate")] == ["improved"]
        assert report["status"] == "pass"

    def test_exact_metrics_report_but_never_fail(self):
        current = make_results()
        current["deoptless"]["deoptless_misses"] += 5
        report = compare_results(current, make_results())
        assert report["status"] == "pass"
        assert report["changes"] == 1
        (delta,) = by_metric(report, "deoptless_misses")
        assert delta["status"] == "changed" and delta["kind"] == "exact"

    def test_metric_missing_from_current_is_a_regression(self):
        current = make_results()
        del current["serving"]["total_service_cycles"]
        report = compare_results(current, make_results())
        assert report["status"] == "fail"
        (delta,) = by_metric(report, "total_service_cycles")
        assert delta["status"] == "missing" and delta["current"] is None

    def test_missing_suite_fails_loudly(self):
        current = make_results()
        del current["deoptless"]["benchmarks"]["shape-flip"]
        report = compare_results(current, make_results())
        assert {metric for _, metric, _ in failing(report)} == {
            "benchmarks.shape-flip.off_cycles",
            "benchmarks.shape-flip.on_cycles",
            "benchmarks.shape-flip.cycle_ratio",
        }

    def test_new_suite_passes_trivially(self):
        baseline = make_results()
        del baseline["deoptless"]["benchmarks"]["shape-flip"]
        report = compare_results(make_results(), baseline)
        assert report["status"] == "pass" and report["changes"] == 3

    def test_bounds_and_flags_hold_without_a_baseline_value(self):
        current = make_results()
        current["deoptless"]["cycle_ratio"] = 0.81
        current["deoptless"]["outputs_identical"] = False
        current["serving"]["warm_hit_rate"] = 0.89
        report = compare_results(current, {})
        assert failing(report) == [
            ("deoptless", "cycle_ratio", "regressed"),
            ("deoptless", "outputs_identical", "regressed"),
            ("serving", "warm_hit_rate", "regressed"),
        ]

    def test_planted_serving_service_regression_is_flagged(self):
        current = make_results()
        current["serving"]["p99_service_cycles"] = int(
            current["serving"]["p99_service_cycles"] * 1.05
        )
        report = compare_results(current, make_results())
        assert failing(report) == [("serving", "p99_service_cycles", "regressed")]
        assert by_metric(report, "p99_service_cycles")[0]["kind"] == "cycles"

    def test_serving_service_cycles_have_zero_tolerance(self):
        current = make_results()
        current["serving"]["p50_service_cycles"] += 1
        assert compare_results(current, make_results())["status"] == "fail"

    def test_serving_hit_rate_drop_is_a_ratio_regression(self):
        current = make_results()
        current["serving"]["warm_hit_rate"] = 0.99  # above the floor, below the baseline
        report = compare_results(current, make_results())
        assert failing(report) == [("serving", "warm_hit_rate", "regressed")]
        assert by_metric(report, "warm_hit_rate")[0]["kind"] == "rate"

    def test_serving_cold_warm_divergence_is_a_regression(self):
        current = make_results()
        current["serving"]["cycles_identical"] = False
        report = compare_results(current, make_results())
        assert failing(report) == [("serving", "cycles_identical", "regressed")]

    def test_serving_request_counts_are_report_only(self):
        current = make_results()
        current["serving"]["requests"] += 3
        report = compare_results(current, make_results())
        assert report["status"] == "pass"
        (delta,) = by_metric(report, "requests")
        assert delta["status"] == "changed"

    def test_sections_narrow_the_comparison(self):
        report = compare_results(
            make_results(), make_results(), cycles.select_sections("deoptless")
        )
        assert {d["section"] for d in report["deltas"]} == {"deoptless"}

    def test_section_absent_from_current_is_skipped(self):
        current = make_results()
        del current["serving"]
        report = compare_results(current, make_results())
        assert report["status"] == "pass"
        assert "serving" not in {d["section"] for d in report["deltas"]}
        # ...unless it was asked for by name: then its absence is loud.
        report = compare_results(
            current, make_results(), cycles.select_sections("serving")
        )
        assert report["status"] == "fail"
        assert {status for _, _, status in failing(report)} == {"missing"}


class TestFormatting:
    def test_format_elides_quiet_rows(self):
        current = make_results()
        current["deoptless"]["benchmarks"]["spec-churn"]["on_cycles"] = 990
        report = compare_results(current, make_results())
        table = format_compare(report)
        assert "FAIL" in table and "benchmarks.spec-churn.on_cycles" in table
        assert "p50_service_cycles" not in table  # ok rows hidden by default
        assert "p50_service_cycles" in format_compare(report, verbose=True)

    def test_format_clean_report(self):
        table = format_compare(compare_results(make_results(), make_results()))
        assert "PASS" in table and "equal to the baseline" in table

    def test_cycles_report_lists_every_row_with_its_limit(self):
        listing = cycles.format_cycles(make_results())
        for section in cycles.SECTIONS:
            assert section.title in listing
        assert "benchmarks.spec-churn.off_cycles" in listing
        assert "(limit %s)" % cycles.DEOPTLESS_CYCLE_CEILING in listing

    def test_json_roundtrip(self, tmp_path):
        for data in (make_results(), compare_results(make_results(), make_results())):
            path = str(tmp_path / "data.json")
            cycles.write_json(data, path)
            assert cycles.load_json(path) == data
            with open(path) as handle:
                assert json.load(handle) == data


class TestCompareCLI:
    """``repro bench --compare`` — the one front end of the gate."""

    def run_cli(self, argv):
        out = io.StringIO()
        return cli_main(argv, out=out), out.getvalue()

    @pytest.fixture
    def files(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_results()))
        regressed = make_results()
        row = regressed["deoptless"]["benchmarks"]["spec-churn"]
        row["on_cycles"] = int(row["on_cycles"] * 1.10)
        bad = tmp_path / "regressed.json"
        bad.write_text(json.dumps(regressed))
        return str(baseline), str(bad), tmp_path

    def test_identical_inputs_pass(self, files):
        baseline, _, _ = files
        code, output = self.run_cli(
            ["bench", "--compare", baseline, "--input", baseline]
        )
        assert code == 0
        assert "PASS" in output

    def test_regression_fails_unless_report_only(self, files):
        baseline, bad, tmp_path = files
        delta = str(tmp_path / "delta.json")
        code, output = self.run_cli(
            ["bench", "--compare", baseline, "--input", bad, "--json-out", delta]
        )
        assert code == 1
        assert "FAIL" in output and "benchmarks.spec-churn.on_cycles" in output
        report = cycles.load_json(delta)
        assert report["status"] == "fail" and report["regressions"] == 1
        code, _ = self.run_cli(
            ["bench", "--compare", baseline, "--input", bad, "--report-only"]
        )
        assert code == 0
        code, output = self.run_cli(
            ["bench", "--compare", baseline, "--input", bad, "--sections", "serving"]
        )
        assert code == 0 and "PASS" in output  # the regressed section is not compared

    def test_bad_inputs_raise_usage_errors(self, files):
        baseline, _, tmp_path = files
        with pytest.raises(SystemExit, match="no baseline"):
            self.run_cli(["bench", "--compare", str(tmp_path / "absent.json")])
        for flag in ("--compare", "--cycles"):
            argv = ["bench", flag] + ([baseline] if flag == "--compare" else [])
            with pytest.raises(SystemExit, match="unknown sections nope; available"):
                self.run_cli(argv + ["--input", baseline, "--sections", "nope"])

    def test_cycles_writes_the_results_file(self, files):
        baseline, _, tmp_path = files
        output_path = str(tmp_path / "out.json")
        code, output = self.run_cli(
            ["bench", "--cycles", "--input", baseline, "--output", output_path]
        )
        assert code == 0 and "benchmarks.spec-churn.off_cycles" in output
        assert cycles.load_json(output_path) == make_results()
