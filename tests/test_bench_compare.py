"""The bench regression sentinel (repro.bench.compare + the tools).

The contract under test, straight from docs/METRICS.md: deterministic
model cycles compare with **zero tolerance** — a planted 10% cycle
regression is flagged while two runs of the same tree compare clean —
host seconds get the widest band (15%), speedup ratios a 10% band,
and exact work counters are report-only.
"""

import copy
import importlib.util
import io
import json
import os

import pytest

from repro.bench.compare import (
    THRESHOLDS,
    compare_results,
    format_compare,
    load_compare_json,
    write_compare_json,
)
from repro.tools.cli import main as cli_main


def make_results():
    """A minimal result dict in the BENCH_wallclock.json shape."""
    return {
        "protocol": {"repeats": 3},
        "suites": {
            "sunspider": {
                "reference_seconds": 1.20,
                "closure_seconds": 0.60,
                "whole_seconds": 0.40,
                "sim_instructions": 100000,
                "closure_sips": 166666.0,
                "speedup": 2.0,
                "whole_speedup": 3.0,
            }
        },
        "geomean_speedup": 2.0,
        "geomean_whole_speedup": 3.0,
        "background_compile": {
            "suites": {
                "sunspider": {
                    "sync_cycles": 1000000,
                    "background_cycles": 900000,
                    "cycle_ratio": 0.9,
                }
            },
            "geomean_cycle_ratio": 0.9,
        },
        "warm_cache": {
            "cold_seconds": 0.5,
            "warm_seconds": 0.25,
            "speedup": 2.0,
            "disk_hits": 12,
            "cycles_identical": True,
        },
        "serving": {
            "requests": 160,
            "rejected": 0,
            "batches": 40,
            "tenants": 6,
            "p50_latency_cycles": 650000,
            "p99_latency_cycles": 2600000,
            "total_latency_cycles": 120000000,
            "cold_hit_rate": 0.58,
            "warm_hit_rate": 1.0,
            "cycles_identical": True,
        },
    }


def by_metric(report, metric):
    return [d for d in report["deltas"] if d["metric"] == metric]


def statuses(report):
    return {d["status"] for d in report["deltas"]}


def _load_tool(name):
    """Import a tools/*.py script as a module (they are not packages)."""
    path = os.path.join(os.path.dirname(__file__), "..", "tools", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestClassification:
    def test_identical_runs_compare_clean(self):
        report = compare_results(make_results(), make_results())
        assert report["status"] == "pass"
        assert report["regressions"] == 0
        assert report["improvements"] == 0
        assert report["changes"] == 0
        assert statuses(report) == {"ok"}
        assert {d["section"] for d in report["deltas"]} == {
            "backends",
            "background",
            "warm-cache",
            "serving",
        }

    def test_sips_metrics_are_not_diffed(self):
        report = compare_results(make_results(), make_results())
        assert not by_metric(report, "closure_sips")

    def test_planted_10pct_cycle_regression_is_flagged(self):
        current = make_results()
        row = current["background_compile"]["suites"]["sunspider"]
        row["background_cycles"] = int(row["background_cycles"] * 1.10)
        report = compare_results(current, make_results())
        assert report["status"] == "fail"
        regressed = [d for d in report["deltas"] if d["status"] == "regressed"]
        assert [(d["suite"], d["metric"]) for d in regressed] == [
            ("sunspider", "background_cycles")
        ]
        assert regressed[0]["kind"] == "cycles"
        assert regressed[0]["delta_pct"] == pytest.approx(10.0, abs=0.01)
        assert regressed[0]["threshold_pct"] == 0.0

    def test_cycles_have_zero_tolerance(self):
        current = make_results()
        current["background_compile"]["suites"]["sunspider"]["sync_cycles"] += 1
        report = compare_results(current, make_results())
        assert report["regressions"] == 1  # a single cycle is a regression

    def test_time_band_is_15_percent(self):
        baseline = make_results()
        within = make_results()
        within["suites"]["sunspider"]["closure_seconds"] = 0.60 * 1.10
        assert compare_results(within, baseline)["status"] == "pass"
        over = make_results()
        over["suites"]["sunspider"]["closure_seconds"] = 0.60 * 1.20
        report = compare_results(over, baseline)
        assert report["status"] == "fail"
        (delta,) = [d for d in report["deltas"] if d["status"] == "regressed"]
        assert delta["metric"] == "closure_seconds" and delta["kind"] == "time"
        faster = make_results()
        faster["suites"]["sunspider"]["closure_seconds"] = 0.60 * 0.80
        report = compare_results(faster, baseline)
        assert report["status"] == "pass" and report["improvements"] == 1

    def test_ratio_direction_higher_is_better(self):
        baseline = make_results()
        slower = make_results()
        slower["suites"]["sunspider"]["speedup"] = 2.0 * 0.85  # -15% < -10%
        report = compare_results(slower, baseline)
        assert [d["status"] for d in by_metric(report, "speedup")
                if d["section"] == "backends"] == ["regressed"]
        better = make_results()
        better["suites"]["sunspider"]["speedup"] = 2.0 * 1.20
        report = compare_results(better, baseline)
        assert [d["status"] for d in by_metric(report, "speedup")
                if d["section"] == "backends"] == ["improved"]

    def test_exact_metrics_report_but_never_fail(self):
        current = make_results()
        current["suites"]["sunspider"]["sim_instructions"] += 5000
        report = compare_results(current, make_results())
        assert report["status"] == "pass"
        assert report["changes"] == 1
        (delta,) = by_metric(report, "sim_instructions")
        assert delta["status"] == "changed" and delta["threshold_pct"] is None

    def test_metric_missing_from_current_is_a_regression(self):
        current = make_results()
        del current["suites"]["sunspider"]["whole_speedup"]
        report = compare_results(current, make_results())
        assert report["status"] == "fail"
        (delta,) = by_metric(report, "whole_speedup")
        assert delta["status"] == "missing" and delta["current"] is None

    def test_warm_cache_divergence_is_a_regression(self):
        current = make_results()
        current["warm_cache"]["cycles_identical"] = False
        report = compare_results(current, make_results())
        assert report["status"] == "fail"
        (delta,) = by_metric(report, "cycles_identical")
        assert delta["status"] == "regressed"

    def test_threshold_override_widens_the_band(self):
        current = make_results()
        current["suites"]["sunspider"]["closure_seconds"] = 0.60 * 1.20
        assert compare_results(current, make_results())["status"] == "fail"
        relaxed = compare_results(
            current, make_results(), thresholds={"time": 0.50}
        )
        assert relaxed["status"] == "pass"
        assert relaxed["thresholds"]["time"] == 0.50
        assert relaxed["thresholds"]["cycles"] == THRESHOLDS["cycles"]

    def test_planted_serving_latency_regression_is_flagged(self):
        current = make_results()
        current["serving"]["p99_latency_cycles"] = int(
            current["serving"]["p99_latency_cycles"] * 1.05
        )
        report = compare_results(current, make_results())
        assert report["status"] == "fail"
        regressed = [d for d in report["deltas"] if d["status"] == "regressed"]
        assert [(d["section"], d["metric"]) for d in regressed] == [
            ("serving", "p99_latency_cycles")
        ]
        assert regressed[0]["kind"] == "cycles"
        assert regressed[0]["threshold_pct"] == 0.0

    def test_serving_latencies_have_zero_tolerance(self):
        current = make_results()
        current["serving"]["p50_latency_cycles"] += 1
        assert compare_results(current, make_results())["status"] == "fail"

    def test_serving_hit_rate_drop_is_a_ratio_regression(self):
        current = make_results()
        current["serving"]["warm_hit_rate"] = 0.85  # -15% < the 10% band
        report = compare_results(current, make_results())
        assert report["status"] == "fail"
        (delta,) = [d for d in report["deltas"] if d["status"] == "regressed"]
        assert (delta["metric"], delta["kind"]) == ("warm_hit_rate", "ratio")

    def test_serving_cold_warm_divergence_is_a_regression(self):
        current = make_results()
        current["serving"]["cycles_identical"] = False
        report = compare_results(current, make_results())
        assert report["status"] == "fail"
        regressed = [d for d in report["deltas"] if d["status"] == "regressed"]
        assert [(d["section"], d["metric"]) for d in regressed] == [
            ("serving", "cycles_identical")
        ]

    def test_serving_request_counts_are_report_only(self):
        current = make_results()
        current["serving"]["batches"] += 3
        report = compare_results(current, make_results())
        assert report["status"] == "pass"
        (delta,) = by_metric(report, "batches")
        assert delta["status"] == "changed"

    def test_sections_narrow_the_comparison(self):
        report = compare_results(
            make_results(), make_results(), sections=("background",)
        )
        assert {d["section"] for d in report["deltas"]} == {"background"}

    def test_section_absent_from_current_is_skipped(self):
        current = make_results()
        del current["warm_cache"]
        report = compare_results(current, make_results())
        assert report["status"] == "pass"
        assert "warm-cache" not in {d["section"] for d in report["deltas"]}


class TestFormatting:
    def test_format_elides_quiet_rows(self):
        current = make_results()
        current["background_compile"]["suites"]["sunspider"][
            "background_cycles"
        ] = 990000
        report = compare_results(current, make_results())
        table = format_compare(report)
        assert "FAIL" in table and "background_cycles" in table
        assert "closure_seconds" not in table  # ok rows hidden by default
        assert "closure_seconds" in format_compare(report, verbose=True)

    def test_format_clean_report(self):
        table = format_compare(compare_results(make_results(), make_results()))
        assert "PASS" in table and "within thresholds" in table

    def test_json_roundtrip(self, tmp_path):
        report = compare_results(make_results(), make_results())
        path = str(tmp_path / "delta.json")
        write_compare_json(report, path)
        assert load_compare_json(path) == report


class TestSentinelTools:
    """tools/bench_compare.py and tools/perf_gate.py --from-compare."""

    @pytest.fixture
    def files(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_results()))
        regressed = make_results()
        row = regressed["background_compile"]["suites"]["sunspider"]
        row["background_cycles"] = int(row["background_cycles"] * 1.10)
        bad = tmp_path / "regressed.json"
        bad.write_text(json.dumps(regressed))
        return str(baseline), str(bad), tmp_path

    def test_clean_diff_exits_zero(self, files, capsys):
        baseline, _, _ = files
        tool = _load_tool("bench_compare")
        assert tool.main(["--baseline", baseline, "--input", baseline]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_regression_exits_one_unless_report_only(self, files, capsys):
        baseline, bad, tmp_path = files
        tool = _load_tool("bench_compare")
        delta = str(tmp_path / "bench-delta.json")
        assert (
            tool.main(
                ["--baseline", baseline, "--input", bad, "--json-out", delta]
            )
            == 1
        )
        assert "FAIL" in capsys.readouterr().out
        report = load_compare_json(delta)
        assert report["status"] == "fail" and report["regressions"] == 1
        assert (
            tool.main(
                ["--baseline", baseline, "--input", bad, "--report-only"]
            )
            == 0
        )
        capsys.readouterr()

    def test_usage_errors_exit_two(self, files, capsys):
        baseline, _, tmp_path = files
        tool = _load_tool("bench_compare")
        assert (
            tool.main(
                ["--baseline", baseline, "--input", baseline, "--sections", "nope"]
            )
            == 2
        )
        assert (
            tool.main(
                [
                    "--baseline",
                    baseline,
                    "--input",
                    baseline,
                    "--threshold",
                    "bogus=0.5",
                ]
            )
            == 2
        )
        assert tool.main(["--baseline", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_threshold_flag_widens_the_band(self, files, capsys):
        baseline, _, tmp_path = files
        slow = make_results()
        slow["suites"]["sunspider"]["closure_seconds"] = 0.60 * 1.20
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        tool = _load_tool("bench_compare")
        argv = ["--baseline", baseline, "--input", str(slow_path)]
        assert tool.main(argv) == 1
        assert tool.main(argv + ["--threshold", "time=0.5"]) == 0
        capsys.readouterr()

    def test_perf_gate_consumes_the_delta_report(self, files, capsys):
        baseline, bad, tmp_path = files
        compare = _load_tool("bench_compare")
        gate = _load_tool("perf_gate")
        clean = str(tmp_path / "clean-delta.json")
        broken = str(tmp_path / "broken-delta.json")
        compare.main(
            ["--baseline", baseline, "--input", baseline, "--json-out", clean]
        )
        compare.main(
            [
                "--baseline",
                baseline,
                "--input",
                bad,
                "--json-out",
                broken,
                "--report-only",
            ]
        )
        capsys.readouterr()
        assert gate.main(["--from-compare", clean]) == 0
        assert "perf gate passed" in capsys.readouterr().out
        assert gate.main(["--from-compare", broken]) == 1
        assert "PERF GATE FAILED" in capsys.readouterr().out


class TestCompareCLI:
    """``repro bench --compare`` — the sentinel inside the main CLI."""

    def run_cli(self, argv):
        out = io.StringIO()
        return cli_main(argv, out=out), out.getvalue()

    @pytest.fixture
    def files(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_results()))
        regressed = make_results()
        row = regressed["background_compile"]["suites"]["sunspider"]
        row["background_cycles"] = int(row["background_cycles"] * 1.10)
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
        assert "FAIL" in output and "background_cycles" in output
        assert load_compare_json(delta)["regressions"] == 1
        code, _ = self.run_cli(
            ["bench", "--compare", baseline, "--input", bad, "--report-only"]
        )
        assert code == 0

    def test_bad_inputs_raise_usage_errors(self, files):
        baseline, _, tmp_path = files
        with pytest.raises(SystemExit, match="no baseline"):
            self.run_cli(["bench", "--compare", str(tmp_path / "absent.json")])
        with pytest.raises(SystemExit, match="unknown sections"):
            self.run_cli(
                [
                    "bench",
                    "--compare",
                    baseline,
                    "--input",
                    baseline,
                    "--sections",
                    "nope",
                ]
            )
