"""Tests of the benchmark itself: ``python -m pytest hostbench -q``.

Not part of tier-1 (``testpaths`` in pyproject.toml is untouched).
"""

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

from hostbench import run, trace, workloads

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """One ``--smoke --report`` run: every workload, traced and untraced."""
    path = str(tmp_path_factory.mktemp("hostbench") / "smoke.json")
    subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke", "--report", path],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture()
def engine_on_path(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))


def test_smoke_emits_every_metric_with_a_unit(smoke_report):
    assert sorted(smoke_report["workloads"]) == sorted(workloads.WORKLOADS)
    for entry in smoke_report["workloads"].values():
        for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            assert sorted(entry[section]) == sorted(name for name, _unit, _better in table)
            for name, unit, _better in table:
                assert NAME.match(name)
                assert entry[section][name]["unit"] == unit
                assert isinstance(entry[section][name]["value"], (int, float))
        assert all(metric["value"] > 0 for metric in entry["end_to_end"].values())
        assert entry["fail_share"] == 0 and entry["mismatches"] == []
    assert set(smoke_report["layers_by_backend"]["suites-steady"]) == {"closure", "whole"}


def test_benchmark_json_names_what_the_runner_prints():
    declared = benchmark_json()
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in declared[section]] == list(table)
    assert declared["command"] == ["python3", "hostbench/run.py"]
    assert declared["paths"] == ["hostbench"]


@pytest.mark.parametrize("traced", (0, 1))
def test_result_line_is_the_contract(traced):
    output = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke", "--workload", "pageload-warm"]
        + ["--seed", "7", "--seconds", "1", "--trace", str(traced)],
        check=True,
        stdout=subprocess.PIPE,
        timeout=120,
    ).stdout.decode()
    result = json.loads(output.strip().rsplit("\n", 1)[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if traced else run.END_TO_END
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        name: unit for name, unit, _better in table
    }


def test_self_times_are_non_negative_and_fit_in_the_traced_wall(smoke_report):
    for workload in workloads.WORKLOADS:
        with open(os.path.join(run.OUT, "trace-%s.json" % workload)) as handle:
            spans = json.load(handle)["spans"]
        own = trace.self_times(spans)
        assert min(own) >= -1e-9
        roots = sum(span[2] - span[1] for span in spans if span[0] == trace.ROOT)
        layers = sum(seconds for span, seconds in zip(spans, own) if span[0] != trace.ROOT)
        assert 0 < layers <= roots
        assert all(span[3] < index for index, span in enumerate(spans))


def test_every_wrapped_attribute_is_restored_even_when_the_guest_raises(engine_on_path):
    from repro import FULL_SPEC, Engine
    from repro.errors import JSSyntaxError

    def owners():
        for module_name, class_name, attribute, _name in trace.TARGETS + (trace.executor_target(),):
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            yield owner, attribute

    originals = [vars(owner)[attribute] for owner, attribute in owners()]
    tracer = trace.Tracer()
    with pytest.raises(JSSyntaxError):
        with tracer.installed():
            assert all(
                vars(owner)[attribute] is not original
                for (owner, attribute), original in zip(owners(), originals)
            )
            with tracer.operation_span("broken"):
                Engine(config=FULL_SPEC).run_source("function (")
    assert all(
        vars(owner)[attribute] is original
        for (owner, attribute), original in zip(owners(), originals)
    )
    assert tracer.spans and None not in tracer.spans and tracer.current == -1


def test_a_corrupted_expected_digest_is_a_failed_operation():
    with run.Scratch() as scratch:
        expected = dict(run.resolve_expected(scratch, "suites-steady", workloads.DEFAULT_SEED))
        expected["sunspider/bitops-3bit-bits-in-byte"] = "0" * 64
        plan = run.Plan(scratch, "suites-steady", workloads.DEFAULT_SEED, smoke=True, expected=expected)
        attempted, failed, mismatches = run.soundness(list(run.measure(plan, 1)))
    assert (attempted, failed, mismatches) == (3, 1, [])


def test_every_seed_carries_the_same_aggregate_work(engine_on_path):
    weights = []
    for seed in range(1, 9):
        pages = workloads.page_operations(seed)
        assert sorted(source.count("\nfunction ") for _name, source in pages) == list(
            workloads.PAGE_SIZES
        )
        weights.append(sum(workloads.hot_weight(source) for _name, source in pages))
    assert workloads.page_operations(3) == workloads.page_operations(3)
    assert workloads.page_operations(3, limit=2) == workloads.page_operations(3)[:2]
    assert run.spread(weights) < 0.05
