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


class TestGuestErrors:
    """A guest error ends a script-running subcommand with exit 1 and
    one stderr line, not a host traceback."""

    @pytest.fixture
    def failing(self, tmp_path):
        path = tmp_path / "fails.js"
        path.write_text('print("before"); x.y;\n')
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["trace"], ["metrics"], ["profile", "--cycles"]],
        ids=" ".join,
    )
    def test_one_stderr_line_and_exit_1(self, argv, failing, capsys):
        code, _output = run_cli(argv[:1] + [failing] + argv[1:])
        assert code == 1
        assert capsys.readouterr().err == "Uncaught JSReferenceError: x is not defined\n"

    def test_run_prints_what_the_guest_printed_first(self, failing, capsys):
        assert run_cli(["run", failing]) == (1, "before\n")
        assert capsys.readouterr().err.startswith("Uncaught JSReferenceError")

    @pytest.mark.parametrize(
        "source",
        [
            "print(" + "(" * 3000 + "1" + ")" * 3000 + ");\n",
            "var a = " + "[" * 3000 + "]" * 3000 + ";\n",
        ],
        ids=["parentheses", "array-literals"],
    )
    def test_nesting_past_the_host_stack_is_a_guest_syntax_error(self, source, tmp_path, capsys):
        path = tmp_path / "deep.js"
        path.write_text(source)
        assert run_cli(["run", str(path)]) == (1, "")
        assert capsys.readouterr().err == "Uncaught JSSyntaxError: too much nesting\n"

    def test_a_vm_bug_keeps_its_traceback(self, script, monkeypatch):
        from repro.errors import CompilerError

        def broken(self, source):
            raise CompilerError("broken")

        monkeypatch.setattr("repro.engine.runtime_engine.Engine.run_source", broken)
        with pytest.raises(CompilerError):
            run_cli(["run", script])


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

    def test_the_report_line_reads_the_service_cycles(self, tmp_path):
        import json

        path = str(tmp_path / "result.json")
        code, output = run_cli(self.FLAGS + ["--json", path])
        assert code == 0
        with open(path) as handle:
            result = json.load(handle)
        line = "service p50 {:,} / p99 {:,} cycles; 0 errors\n".format(
            result["p50_service_cycles"], result["p99_service_cycles"]
        )
        assert line in output
        assert 0 < result["p50_service_cycles"] <= result["p99_service_cycles"]
        assert result["total_service_cycles"] == sum(
            r["service_cycles"] for r in result["responses"]
        )

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

    def test_a_failed_request_fails_the_run_and_names_its_error(self, monkeypatch):
        from repro.serving import fleet

        # Every catalog program throws: each reply is a guest error.
        monkeypatch.setattr(
            fleet, "build_catalog", lambda profile: {"app-00": "null.x;", "app-01": "null.x;"}
        )
        code, output = run_cli(self.FLAGS)
        assert code == 1
        assert "0 requests over 3 tenants" in output
        assert "12 errors" in output
        assert "fleet: seq 0 failed: JSTypeError" in output

    def test_the_result_counts_errors(self):
        from repro.serving.fleet import FleetProfile, run_fleet

        result = run_fleet(
            FleetProfile(tenants=2, requests=4, programs=1, functions_per_program=2),
            cache_mode="off",
        )
        assert result["errors"] == 0 and result["requests"] == 4


class TestCountFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--tenants", "0"],
            ["fleet", "--programs", "0"],
            ["fleet", "--functions", "0"],
            ["fleet", "--shards", "0"],
            ["fleet", "--shards", "-3"],
            ["serve", "--shards", "0", "--cache", "shared", "--cache-dir", "unused"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_a_count_below_one_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            run_cli(argv)
        assert exited.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    # ``serve`` cases carry ``--cache shared`` without ``--cache-dir``, so
    # a value that got past the parser would stop in ``cmd_serve`` (not
    # a usage error) instead of starting a server.
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fleet", "--requests", "-1"], "must be at least 1"),
            (["fleet", "--requests", "1", "--jobs", "0"], "must be at least 1"),
            (["bench", "--jobs", "0"], "must be at least 1"),
            (["fuzz", "--iterations", "-3"], "must be at least 1"),
            (["profile", "{script}", "--top", "-1"], "must be at least 1"),
            (["trace", "{script}", "--limit", "-1"], "must be at least 1"),
            (["run", "{script}", "--cache-capacity", "-2"], "must be at least 1"),
            (["serve", "--catalog-functions", "0", "--cache", "shared"], "must be at least 1"),
            (["serve", "--workers", "-1", "--cache", "shared"], "must be at least 0"),
            (["serve", "--catalog-programs", "-1", "--cache", "shared"], "must be at least 0"),
            (["cache", "evict", "--dir", "{dir}", "--max-bytes", "-5"], "must be at least 0"),
            (["cache", "evict", "--dir", "{dir}", "--max-entries", "-1"], "must be at least 0"),
            (["serve", "--port", "-1", "--cache", "shared"], "must be at least 0"),
            (["serve", "--port", "65536", "--cache", "shared"], "must be at most 65535"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_an_int_out_of_range_is_a_usage_error(
        self, argv, message, script, tmp_path, capsys
    ):
        argv = [arg.format(script=script, dir=str(tmp_path)) for arg in argv]
        with pytest.raises(SystemExit) as exited:
            run_cli(argv)
        assert exited.value.code == 2
        assert message in capsys.readouterr().err


def _subcommands():
    """``{name: subparser}`` of the ``repro`` parser."""
    from repro.tools.cli import build_parser

    (subparsers,) = [
        action for action in build_parser()._actions if action.dest == "command"
    ]
    return subparsers.choices


class TestHelpNamesWhatItOwns:
    def test_the_docstring_shows_every_subcommand(self):
        from repro.tools import cli

        for name in _subcommands():
            assert "python -m repro %s" % name in cli.__doc__, name

    def test_lists_come_from_their_owners(self):
        from repro.engine.config import PAPER_CONFIGS
        from repro.fuzz.oracle import VARIANT_NAMES
        from repro.workloads import ALL_SUITES

        subcommands = _subcommands()
        bench = {action.dest: action for action in subcommands["bench"]._actions}
        assert bench["suite"].choices == sorted(ALL_SUITES)
        assert "all %d)" % len(PAPER_CONFIGS) in bench["configs"].help
        fuzz = {action.dest: action for action in subcommands["fuzz"]._actions}
        assert fuzz["matrix"].help.endswith(",".join(VARIANT_NAMES))


class TestServe:
    def test_serve_cache_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            run_cli(["serve", "--cache", "shared"])
