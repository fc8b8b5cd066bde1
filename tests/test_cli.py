"""Tests for the command-line interface."""

import io

import pytest

from repro.tools.cli import main


@pytest.fixture
def script(tmp_path):
    path = tmp_path / "prog.js"
    path.write_text(
        """
        function square(x) { return x * x; }
        var total = 0;
        for (var i = 0; i < 50; i++) total += square(7);
        print(total);
        """
    )
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestRun:
    def test_runs_and_prints(self, script):
        code, output = run_cli(["run", script])
        assert code == 0
        assert "2450" in output

    def test_stats_flag(self, script):
        _code, output = run_cli(["run", script, "--stats"])
        assert "total_cycles" in output
        assert "specialized" in output

    def test_config_selection(self, script):
        _code, output = run_cli(["run", script, "--config", "baseline", "--stats"])
        assert "specialized       0" in output.replace("  ", " ") or "specialized" in output

    def test_unknown_config_rejected(self, script):
        with pytest.raises(SystemExit):
            run_cli(["run", script, "--config", "warpdrive"])

    def test_cache_capacity_flag(self, script):
        code, output = run_cli(["run", script, "--cache-capacity", "2"])
        assert code == 0


class TestProfile:
    def test_profile_output(self, script):
        _code, output = run_cli(["profile", script])
        assert "functions: " in output
        assert "square" in output
        assert "single argument set" in output

    def test_profile_table_has_fraction_columns(self, script):
        _code, output = run_cli(["profile", script])
        assert "calls%" in output
        assert "mono" in output
        assert "100.00%" in output

    def test_profile_json(self, script):
        import json

        code, output = run_cli(["profile", script, "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["functions"] == 1
        assert payload["total_calls"] == 50
        profile = payload["profiles"][0]
        assert profile["name"] == "square"
        assert profile["monomorphic"] is True
        assert profile["call_share"] == 1.0

    def test_profile_cycles_table(self, script):
        code, output = run_cli(["profile", script, "--cycles"])
        assert code == 0
        assert "total cycles:" in output
        assert "attributed:" in output
        assert "square" in output
        assert "self%" in output

    def test_profile_cycles_exact(self, script):
        import json
        import re

        _code, table = run_cli(["profile", script, "--cycles"])
        match = re.search(r"total cycles: (\d+) \(attributed: (\d+)\)", table)
        assert match and match.group(1) == match.group(2)
        _code, output = run_cli(["profile", script, "--cycles", "--json"])
        payload = json.loads(output)
        assert payload["summary"]["attributed_cycles"] == (
            payload["stats"]["total_cycles"]
        )

    def test_profile_cycles_collapsed(self, script, tmp_path):
        from repro.telemetry.reports import parse_collapsed

        folded = tmp_path / "stacks.folded"
        code, _output = run_cli(
            ["profile", script, "--cycles", "--collapsed", str(folded)]
        )
        assert code == 0
        stacks = parse_collapsed(folded.read_text())
        assert stacks and all(count > 0 for _frames, count in stacks)

    def test_profile_suite_benchmark_workload(self):
        code, output = run_cli(
            ["profile", "sunspider/bitops-bits-in-byte", "--cycles"]
        )
        assert code == 0
        assert "bitsinbyte" in output


class TestAnnotate:
    def test_annotate_sections(self, script):
        code, output = run_cli(["annotate", script, "--function", "square"])
        assert code == 0
        assert "; total cycles:" in output
        assert "== square (code" in output
        assert "specialized on: [7]" in output
        assert "checkoverrecursed" in output

    def test_annotate_has_per_instruction_counts(self, script):
        import re

        _code, output = run_cli(["annotate", script, "--function", "square"])
        # Per-instruction rows: idx, count, cycles, share%.
        rows = re.findall(r"^(?:=>|  ) +\d+ +(\d+) +\d+ +[\d.]+%", output, re.MULTILINE)
        assert rows and any(int(count) > 0 for count in rows)

    def test_annotate_unknown_function(self, script):
        with pytest.raises(SystemExit):
            run_cli(["annotate", script, "--function", "nope"])

    def test_annotate_simple_backend_matches(self, script):
        _code, closure = run_cli(["annotate", script, "--function", "square"])
        _code, simple = run_cli(
            ["annotate", script, "--function", "square", "--executor", "simple"]
        )
        assert simple == closure


class TestDisasm:
    def test_disasm_sections(self, script):
        code, output = run_cli(["disasm", script, "--function", "square"])
        assert code == 0
        assert "== bytecode ==" in output
        assert "== optimized MIR ==" in output
        assert "== native code" in output
        assert "specialized on: [7]" in output

    def test_disasm_baseline_not_specialized(self, script):
        _code, output = run_cli(
            ["disasm", script, "--function", "square", "--config", "baseline"]
        )
        assert "specialized on" not in output
        assert "parameter" in output

    def test_unknown_function(self, script):
        with pytest.raises(SystemExit):
            run_cli(["disasm", script, "--function", "nope"])


class TestTrace:
    def test_trace_timeline(self, script):
        code, output = run_cli(["trace", script])
        assert code == 0
        assert "compile.start" in output
        assert "specialize.specialized" in output
        assert "events under" in output

    def test_channel_filter(self, script):
        _code, output = run_cli(["trace", script, "--channels", "cache"])
        assert "cache.store" in output
        assert "compile.start" not in output

    def test_jsonl_and_chrome_outputs(self, script, tmp_path):
        import json

        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        code, _output = run_cli(
            ["trace", script, "--jsonl", str(jsonl), "--chrome", str(chrome),
             "--no-timeline"]
        )
        assert code == 0
        lines = jsonl.read_text().splitlines()
        assert lines and all("ts" in json.loads(line) for line in lines)
        trace = json.loads(chrome.read_text())
        assert trace["traceEvents"]

    def test_suite_benchmark_workload(self):
        code, output = run_cli(
            ["trace", "sunspider/bitops-bits-in-byte", "--limit", "5"]
        )
        assert code == 0
        assert "bitsinbyte" in output

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            run_cli(["trace", "octane/nonexistent"])

    def test_unknown_channel(self, script):
        with pytest.raises(SystemExit):
            run_cli(["trace", script, "--channels", "warpdrive"])

    def test_profile_channel_emits_summary(self, script):
        code, output = run_cli(["trace", script, "--channels", "profile"])
        assert code == 0
        assert "profile.summary" in output
        assert "1 events under" in output


class TestConfigs:
    def test_lists_all(self):
        _code, output = run_cli(["configs"])
        assert "baseline" in output
        assert "all" in output
        assert "extended" in output
        assert "ParameterSpec" in output


class TestBench:
    def test_bench_quick(self):
        _code, output = run_cli(["bench", "--suite", "kraken", "--configs", "PS"])
        assert "runtime speedup" in output
        assert "kraken" in output

    def test_unknown_suite(self):
        with pytest.raises(SystemExit):
            run_cli(["bench", "--suite", "octane"])


class TestFleet:
    FLAGS = [
        "fleet",
        "--tenants", "3",
        "--requests", "12",
        "--programs", "2",
        "--functions", "3",
        "--seed", "9",
    ]

    def test_fleet_runs_and_reports(self, tmp_path):
        schedule = str(tmp_path / "schedule.jsonl")
        metrics = str(tmp_path / "metrics.jsonl")
        code, output = run_cli(
            self.FLAGS + ["--schedule-out", schedule, "--metrics-jsonl", metrics]
        )
        assert code == 0
        assert "12 requests over 3 tenants" in output
        assert "hit rate 0.000)\n" in output
        with open(schedule) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 12
        import json

        first = json.loads(lines[0])
        assert first["seq"] == 0 and first["tenant"].startswith("t")
        with open(metrics) as handle:
            merged = json.loads(handle.readline())
        assert merged["counters"]["repro_serving_requests_total"] == 12

    def test_fleet_is_reproducible_across_invocations(self, tmp_path):
        first = str(tmp_path / "a.jsonl")
        second = str(tmp_path / "b.jsonl")
        run_cli(self.FLAGS + ["--metrics-jsonl", first])
        run_cli(self.FLAGS + ["--metrics-jsonl", second])
        with open(first) as handle:
            one = handle.read()
        with open(second) as handle:
            two = handle.read()
        assert one == two


class TestServe:
    def test_serve_cache_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            run_cli(["serve", "--cache", "shared"])
