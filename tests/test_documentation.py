"""Documentation hygiene: every public item carries a docstring."""

import importlib
import inspect
import pkgutil

import repro

SKIP_MODULES = set()


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        yield importlib.import_module(info.name)


def test_every_module_has_a_docstring():
    missing = []
    for module in _walk_modules():
        if not (module.__doc__ or "").strip():
            missing.append(module.__name__)
    assert not missing, "modules without docstrings: %s" % missing


def test_every_public_class_has_a_docstring():
    missing = []
    for module in _walk_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isclass(obj):
                continue
            if obj.__module__ != module.__name__:
                continue  # re-export
            if not (obj.__doc__ or "").strip():
                missing.append("%s.%s" % (module.__name__, name))
    assert not missing, "classes without docstrings: %s" % missing


def test_every_public_function_has_a_docstring():
    missing = []
    for module in _walk_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            if not (obj.__doc__ or "").strip():
                missing.append("%s.%s" % (module.__name__, name))
    assert not missing, "functions without docstrings: %s" % missing


def test_design_and_experiments_exist():
    import os

    root = os.path.join(os.path.dirname(repro.__file__), "..", "..")
    for filename in (
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        os.path.join("docs", "TRACING.md"),
        os.path.join("docs", "STATS.md"),
        os.path.join("docs", "FUZZING.md"),
        os.path.join("docs", "SHAPES.md"),
        os.path.join("docs", "METRICS.md"),
        os.path.join("docs", "DEOPTLESS.md"),
        os.path.join("docs", "SERVING.md"),
    ):
        path = os.path.join(root, filename)
        assert os.path.exists(path), "%s missing" % filename
        with open(path) as handle:
            assert len(handle.read()) > 500, "%s suspiciously short" % filename


def _parse_tracing_doc():
    """Extract the documented event schema from docs/TRACING.md.

    The document describes each event as a ``#### `channel.event```
    heading followed by a ``Fields: `a`, `b`, ...`` line; this parser
    is deliberately strict about that shape so the doc cannot drift
    into an unparseable format either.
    """
    import os
    import re

    path = os.path.join(
        os.path.dirname(repro.__file__), "..", "..", "docs", "TRACING.md"
    )
    with open(path) as handle:
        text = handle.read()
    documented = {}
    pattern = re.compile(
        r"^#### `(\w+)\.(\w+)`\n+Fields: (.+)$", re.MULTILINE
    )
    for channel, event, fields_line in pattern.findall(text):
        fields = tuple(re.findall(r"`(\w+)`", fields_line))
        documented.setdefault(channel, {})[event] = fields
    return documented, text


def test_tracing_doc_matches_event_schema():
    """docs/TRACING.md and the code's EVENT_SCHEMA agree exactly."""
    from repro.telemetry.tracing import CHANNELS, EVENT_SCHEMA

    documented, text = _parse_tracing_doc()

    assert set(documented) == set(EVENT_SCHEMA), (
        "channels documented but not in code: %s; in code but undocumented: %s"
        % (
            sorted(set(documented) - set(EVENT_SCHEMA)),
            sorted(set(EVENT_SCHEMA) - set(documented)),
        )
    )
    for channel, events in EVENT_SCHEMA.items():
        assert set(documented[channel]) == set(events), (
            "channel %r: documented events %s != code events %s"
            % (channel, sorted(documented[channel]), sorted(events))
        )
        for event, fields in events.items():
            assert documented[channel][event] == tuple(fields), (
                "%s.%s: documented fields %s != code fields %s"
                % (channel, event, documented[channel][event], tuple(fields))
            )
    # The channel list in the prose must name every channel too.
    for channel in CHANNELS:
        assert "`%s`" % channel in text, "channel %r missing from prose" % channel


def test_stats_doc_matches_as_dict_keys():
    """docs/STATS.md's documented `as_dict()` key set matches the code."""
    import os
    import re

    from repro import Engine

    path = os.path.join(
        os.path.dirname(repro.__file__), "..", "..", "docs", "STATS.md"
    )
    with open(path) as handle:
        text = handle.read()
    match = re.search(r"^Keys: (.+?)(?:\n\n|\Z)", text, re.MULTILINE | re.DOTALL)
    assert match, "docs/STATS.md must carry a parseable 'Keys: ...' paragraph"
    documented = set(re.findall(r"`(\w+)`", match.group(1)))
    actual = set(Engine().stats.as_dict())
    assert documented == actual, (
        "keys documented but not returned: %s; returned but undocumented: %s"
        % (sorted(documented - actual), sorted(actual - documented))
    )


def test_stats_doc_matches_summary_keys():
    """docs/STATS.md's documented `summary()` key set matches the code."""
    import os
    import re

    from repro import Engine

    path = os.path.join(
        os.path.dirname(repro.__file__), "..", "..", "docs", "STATS.md"
    )
    with open(path) as handle:
        text = handle.read()
    match = re.search(
        r"^Summary keys: (.+?)(?:\n\n|\Z)", text, re.MULTILINE | re.DOTALL
    )
    assert match, "docs/STATS.md must carry a parseable 'Summary keys: ...' paragraph"
    documented = set(re.findall(r"`(\w+)`", match.group(1)))
    actual = set(Engine().stats.summary())
    assert documented == actual, (
        "keys documented but not returned: %s; returned but undocumented: %s"
        % (sorted(documented - actual), sorted(actual - documented))
    )


def test_fuzzing_doc_covers_the_variant_matrix():
    """docs/FUZZING.md documents every oracle variant and the chaos
    contract's vocabulary."""
    import os

    from repro.fuzz.oracle import VARIANT_NAMES
    from repro.lir.native import FAULT_INJECTED

    path = os.path.join(
        os.path.dirname(repro.__file__), "..", "..", "docs", "FUZZING.md"
    )
    with open(path) as handle:
        text = handle.read()
    for name in VARIANT_NAMES:
        assert "`%s`" % name in text, "variant %r undocumented" % name
    assert FAULT_INJECTED in text
    assert "ddmin" in text
    assert "tests/corpus/" in text


def _shapes_doc():
    import os

    path = os.path.join(
        os.path.dirname(repro.__file__), "..", "..", "docs", "SHAPES.md"
    )
    with open(path) as handle:
        return handle.read()


def test_shapes_doc_ic_state_table_matches_code():
    """docs/SHAPES.md's IC state-machine table names exactly the states
    the code can report, and its capacity figure matches the code."""
    import re

    from repro.jsvm.feedback import MAX_IC_SHAPES, TypeFeedback

    text = _shapes_doc()
    section = text.split("## The IC state machine", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    # Drive a feedback site through its whole life to enumerate the
    # states the code actually produces (None before any recording).
    feedback = TypeFeedback(num_params=0)
    states = {"unvisited" if feedback.ic_state(0) is None else feedback.ic_state(0)}
    for shape_id in range(MAX_IC_SHAPES + 1):
        feedback.record_shape(0, shape_id)
        states.add(feedback.ic_state(0))
    assert set(rows) == states, (
        "documented IC states %s != code states %s"
        % (sorted(rows), sorted(states))
    )
    assert len(rows) == len(set(rows)), "duplicate rows in the IC table"
    assert "capacity (%d)" % MAX_IC_SHAPES in section, (
        "IC capacity in the doc must match MAX_IC_SHAPES=%d" % MAX_IC_SHAPES
    )


def test_shapes_doc_trace_event_table_matches_schema():
    """docs/SHAPES.md's trace-event table covers exactly the `ic` and
    `shape` channel events from the code's EVENT_SCHEMA."""
    import re

    from repro.telemetry.tracing import EVENT_SCHEMA

    text = _shapes_doc()
    section = text.split("## Trace events", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`(ic|shape)\.(\w+)`", section))
    actual = {
        (channel, event)
        for channel in ("ic", "shape")
        for event in EVENT_SCHEMA[channel]
    }
    assert documented == actual, (
        "events documented but not in schema: %s; in schema but undocumented: %s"
        % (sorted(documented - actual), sorted(actual - documented))
    )


def test_shapes_doc_names_the_contract_vocabulary():
    """The guard op, the megamorphic sentinel, and the retrain reason
    are spelled exactly as the code spells them."""
    from repro.jsvm.feedback import MEGAMORPHIC
    from repro.lir.native import GUARD_OPS

    text = _shapes_doc()
    assert "guardshape" in GUARD_OPS
    assert "`guardshape`" in text
    assert "`%s`" % MEGAMORPHIC in text
    assert "shape-retrain" in text  # the deopt.discard reason
    assert "runtime.shapes" in text


def _metrics_doc():
    import os

    path = os.path.join(
        os.path.dirname(repro.__file__), "..", "..", "docs", "METRICS.md"
    )
    with open(path) as handle:
        return handle.read()


def test_metrics_doc_matches_metric_schema():
    """docs/METRICS.md's registry table matches METRIC_SCHEMA exactly —
    names and types, in both directions."""
    import re

    from repro.telemetry.metrics import METRIC_SCHEMA

    text = _metrics_doc()
    rows = re.findall(
        r"^\| `(\w+)` \| (counter|gauge|histogram) \|", text, re.MULTILINE
    )
    documented = dict(rows)
    assert len(rows) == len(documented), "duplicate rows in the metric table"
    assert set(documented) == set(METRIC_SCHEMA), (
        "metrics documented but not in code: %s; in code but undocumented: %s"
        % (
            sorted(set(documented) - set(METRIC_SCHEMA)),
            sorted(set(METRIC_SCHEMA) - set(documented)),
        )
    )
    for name, spec in METRIC_SCHEMA.items():
        assert documented[name] == spec["type"], (
            "%s: documented type %r != code type %r"
            % (name, documented[name], spec["type"])
        )


def test_metrics_doc_collection_model_matches_the_engine_tables(tmp_path):
    """docs/METRICS.md's "Collection model" table names exactly the
    engine metrics of ``METRIC_SCHEMA``, each once, and every row whose
    source is one attribute (``stats.compiles``) names the value
    ``metrics_payload`` reports for it."""
    import re

    from repro import FULL_SPEC, Engine
    from repro.cache import DiskCodeCache
    from repro.telemetry.metrics import METRIC_SCHEMA, metrics_payload

    text = _metrics_doc()
    section = text[text.index("## Collection model") : text.index("## Metric registry")]
    rows = re.findall(r"^\| `(repro_\w+)` \| (.+) \|$", section, re.MULTILINE)
    names = [name for name, _ in rows]
    assert len(names) == len(set(names)), "duplicate rows in the collection table"
    assert set(names) == {
        name for name in METRIC_SCHEMA if not name.startswith("repro_serving_")
    }
    engine = Engine(
        config=FULL_SPEC,
        code_cache=DiskCodeCache(root=str(tmp_path)),
        hot_call_threshold=3,
        osr_backedge_threshold=10,
    )
    engine.run_source(
        "function f(o) { return o.x; } var s = 0;"
        " for (var i = 0; i < 40; i++) s += f(i % 2 ? {x: i} : {y: 1, x: 2});"
        " print(s);"
    )
    payload = metrics_payload(engine)
    values = dict(payload["counters"], **payload["gauges"])
    attributes = 0
    for name, source in rows:
        match = re.fullmatch(r"`(\w+)\.(\w+)`", source)
        if match:
            ledger, attribute = match.groups()
            assert values[name] == getattr(getattr(engine, ledger), attribute), name
            attributes += 1
    assert attributes >= 25
    assert values["repro_engine_compiles_total"] > 0


def test_metrics_doc_jsonl_record_keys_are_the_written_keys(tmp_path):
    """The JSONL record docs/METRICS.md shows has exactly the keys
    ``write_metrics_jsonl`` writes."""
    import json
    import re

    from repro.telemetry.metrics import MetricsRegistry, write_metrics_jsonl

    text = _metrics_doc()
    section = text[text.index("## Exporters") : text.index("## The bench")]
    bullet = next(b for b in section.split("\n* ") if "write_metrics_jsonl" in b)
    record = re.search(r"`(\{.*?\})`", bullet, re.DOTALL).group(1)
    documented = re.findall(r'"(\w+)":', record)
    path = tmp_path / "metrics.jsonl"
    write_metrics_jsonl(MetricsRegistry(), str(path))
    (line,) = path.read_text().splitlines()
    assert documented == sorted(json.loads(line))


def test_metrics_doc_names_the_contract_vocabulary():
    """The buckets, exporters and sentinel kinds are spelled exactly as
    the code spells them."""
    from repro.bench.cycles import SECTIONS

    text = _metrics_doc()
    assert "COMPILE_COST_BUCKETS" in text
    assert "merge_payloads" in text
    assert "to_prometheus" in text
    assert "write_metrics_jsonl" in text
    assert "format_dashboard" in text
    for section in SECTIONS:
        assert "`%s`" % section.name in text, "section %r undocumented" % section.name
        for row in section.rows:
            assert "`%s`" % row[1] in text, "sentinel kind %r undocumented" % row[1]
    assert "bench --compare BENCH_cycles.json" in text
    assert "bench-delta.json" in text


def _deoptless_doc():
    import os

    path = os.path.join(
        os.path.dirname(repro.__file__), "..", "..", "docs", "DEOPTLESS.md"
    )
    with open(path) as handle:
        return handle.read()


def test_deoptless_doc_trace_event_table_matches_schema():
    """docs/DEOPTLESS.md's event table covers exactly the `deoptless`
    channel events, with the code's field tuples."""
    import re

    from repro.telemetry.tracing import EVENT_SCHEMA

    text = _deoptless_doc()
    section = text.split("## Telemetry", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(
        r"^\| ``deoptless\.(\w+)`` \| (.+?) \|", section, re.MULTILINE
    )
    documented = {
        event: tuple(re.findall(r"``(\w+)``", fields)) for event, fields in rows
    }
    actual = {
        event: tuple(fields)
        for event, fields in EVENT_SCHEMA["deoptless"].items()
    }
    assert documented == actual, (
        "documented deoptless events %s != code events %s"
        % (documented, actual)
    )


def test_deoptless_doc_matches_engine_defaults():
    """The documented switch default and constants match the code's."""
    import inspect

    from repro.engine import runtime_engine
    from repro.engine.config import CostModel

    text = _deoptless_doc()
    signature = inspect.signature(runtime_engine.Engine.__init__)
    assert signature.parameters["deoptless"].default is False
    assert "``Engine(deoptless=True)``" in text
    for name in ("DEOPTLESS_MISS_THRESHOLD", "DEOPTLESS_TABLE_CAPACITY"):
        value = getattr(runtime_engine, name)
        assert "| ``%s`` | %d |" % (name, value) in text, (
            "documented value of %s must match the code's %d" % (name, value)
        )
    assert "| %d |" % CostModel.deoptless_dispatch in text


def test_deoptless_doc_names_the_contract_vocabulary():
    """Counters, floors, kernels and the fuzz/chaos hooks are spelled
    exactly as the code spells them."""
    from repro.bench.cycles import (
        DEOPTLESS_CYCLE_CEILING,
        DEOPTLESS_DISCARD_CEILING,
    )
    from repro import Engine
    from repro.workloads import ALL_SUITES

    text = _deoptless_doc()
    for benchmark in ALL_SUITES["churn"]:
        assert "``%s``" % benchmark.name in text, (
            "churn kernel %r undocumented" % benchmark.name
        )
    ledger = Engine().stats.as_dict()
    for counter in (
        "deoptless_reentries",
        "deoptless_misses",
        "deoptless_generalized_compiles",
    ):
        assert counter in ledger
        assert "``%s``" % counter in text, "counter %r undocumented" % counter
    assert "%.1f" % DEOPTLESS_CYCLE_CEILING in text
    assert "%.1f" % DEOPTLESS_DISCARD_CEILING in text
    assert "measure_deoptless_cycles" in text
    assert "shape-retrain" in text  # the discard a shape miss takes without deoptless
    assert "schedule_seed" in text


def test_profiling_doc_exists_and_mentions_the_invariant():
    """docs/PROFILING.md exists and states the exactness invariant."""
    import os

    path = os.path.join(
        os.path.dirname(repro.__file__), "..", "..", "docs", "PROFILING.md"
    )
    assert os.path.exists(path), "docs/PROFILING.md missing"
    with open(path) as handle:
        text = handle.read()
    assert len(text) > 500, "docs/PROFILING.md suspiciously short"
    assert "total_cycles" in text
    assert "attributed_cycles" in text


def _serving_doc():
    import os

    path = os.path.join(
        os.path.dirname(repro.__file__), "..", "..", "docs", "SERVING.md"
    )
    with open(path) as handle:
        return handle.read()


def test_serving_doc_metric_table_matches_schema():
    """docs/SERVING.md's metric table lists exactly the serving rows of
    METRIC_SCHEMA, with the code's types."""
    import re

    from repro.telemetry.metrics import METRIC_SCHEMA

    text = _serving_doc()
    rows = re.findall(
        r"^\| `(\w+)` \| (counter|gauge|histogram) \|", text, re.MULTILINE
    )
    documented = dict(rows)
    assert len(rows) == len(documented), "duplicate rows in the metric table"
    serving = {
        name: spec
        for name, spec in METRIC_SCHEMA.items()
        if name.startswith("repro_serving_")
    }
    assert set(documented) == set(serving), (
        "metrics documented but not in code: %s; in code but undocumented: %s"
        % (
            sorted(set(documented) - set(serving)),
            sorted(set(serving) - set(documented)),
        )
    )
    for name, spec in serving.items():
        assert documented[name] == spec["type"]


def test_serving_doc_states_the_warm_hit_floor():
    """The documented warm-hit floor matches the code."""
    from repro.bench.cycles import SERVING_WARM_HIT_FLOOR

    text = _serving_doc()
    assert "`SERVING_WARM_HIT_FLOOR` (%.1f)" % SERVING_WARM_HIT_FLOOR in text


def test_serving_doc_lists_every_reply_field():
    """Each field of a served reply is named in the measure section."""
    from repro.serving.isolate import TenantHost

    text = _serving_doc()
    section = text.split("## What a request is measured by", 1)[1]
    section = section.split("\n## ", 1)[0]
    request = {"tenant": "a", "source": "print(1);", "seq": 0}
    reply = TenantHost().execute_request(request)
    assert reply["status"] == "ok"
    for field in reply:
        assert "`%s`" % field in section, "reply field %r undocumented" % field


def test_serving_doc_names_the_contract_vocabulary():
    """Classes, modes, gate fields and the smoke tool are spelled
    exactly as the code spells them."""
    text = _serving_doc()
    for name in (
        "TenantIsolate",
        "TenantHost",
        "ShardedDiskCache",
        "TenantCacheView",
        "WorkerPool",
        "ServingServer",
        "runtime.shapes",
        "common_slot_offset",
        "merge_payloads",
        "measure_serving",
        "tools/serving_smoke.py",
        "repro bench --compare",
    ):
        assert name in text, "%r undocumented" % name
    for mode in ("`off`", "`tenant`", "`shared`"):
        assert mode in text, "cache mode %s undocumented" % mode
    for field in (
        "p50_service_cycles",
        "p99_service_cycles",
        "total_service_cycles",
        "warm_hit_rate",
        "cycles_identical",
    ):
        assert "`%s`" % field in text, "gate field %r undocumented" % field


def test_documented_tools_and_cli_flags_exist():
    """Every ``tools/*.py`` path and every ``python -m repro
    <subcommand> --flag`` spelled in the living documents exists on
    disk / is accepted by the CLI's parser (ROADMAP.md and CHANGES.md
    are history and exempt)."""
    import argparse
    import glob
    import os
    import re

    from repro.tools.cli import build_parser

    root = os.path.join(os.path.dirname(repro.__file__), "..", "..")
    documents = [os.path.join(root, name) for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    documents += sorted(glob.glob(os.path.join(root, "docs", "*.md")))
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for document in documents:
        with open(document) as handle:
            text = handle.read().replace("\\\n", " ")
        where = os.path.basename(document)
        for tool in re.findall(r"(?<![\w/.])tools/\w+\.py", text):
            assert os.path.exists(os.path.join(root, tool)), "%s names %s" % (where, tool)
        for subcommand, rest in re.findall(r"python -m repro (\w+)([^\n`#]*)", text):
            assert subcommand in subparsers.choices, "%s: repro %s" % (where, subcommand)
            accepted = subparsers.choices[subcommand]._option_string_actions
            for flag in re.findall(r"(?<![\w-])--[\w-]+", rest):
                assert flag in accepted, "%s: repro %s %s" % (where, subcommand, flag)
