#!/usr/bin/env python
"""CI check: names a deletion took out of the program stay out.

Each entry of :data:`ABSENT` pins the absence of what one change
deleted — a helper, a parameter, a module-level hook, a second copy of
a rule — so that it cannot come back unnoticed: a regular expression
(Python ``re``, searched line by line), the paths it covers, the one
file it may still name it in, if any, and the reason it must stay
gone.  Every text file under the paths is read; ``__pycache__`` and
this file, which spells every pattern, are skipped.

Usage::

    python tools/absent_names.py    # exits 1 and prints each match
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``(reason, pattern, paths, allowed file or None)``.
ABSENT = (
    (
        "Lifetime is ownership - no collector call and no finalizer under src/",
        r"\bgc\.(collect|disable|freeze|set_threshold)|def __del__",
        ("src",),
        None,
    ),
    (
        "Identity is per engine - no process-global id counter or test hook",
        r"_next_id|_MISCOMPILE_HOOK|function_id",
        ("src", "tools", "tests"),
        None,
    ),
    (
        "One spec-key matcher - the warm call's inline test, no second copy",
        r"_spec_key_matches|_value_matches_key",
        ("src", "tools", "tests"),
        None,
    ),
    (
        "One price list - CostModel is read from the class, never passed, "
        "and one module format is persisted",
        r"cost_model|price_digest|disk_closure|closure_artifact|run_program|_cm\(\)",
        ("src", "tools"),
        None,
    ),
    (
        "A metrics registry only holds numbers - no time series, clock or engine callback",
        r"snapshot_interval|maybe_snapshot|metrics_interval|sparkline|SPARK_GLYPHS",
        ("src", "tools"),
        None,
    ),
    (
        "One ledger - the engine counts in EngineStats and no registry is read "
        "or written during a run",
        r"_EVENT_COUNTERS|_MIRRORED_METRICS|def collect_metrics|\.collect_metrics\(|_watched"
        r"|self\.metrics\.(inc|observe|set_counter|set_gauge)",
        ("src", "tools"),
        None,
    ),
    (
        "A served request crosses no thread - one pipe per worker, read by the event loop",
        r"import threading|context\.Queue\(|_read_responses|_inline_outbox"
        r"|run_in_executor\(None, self\.pool\.submit",
        ("src/repro/serving",),
        None,
    ),
    (
        "No admission lane - a served request is measured by its engine cycles, "
        "and nothing writes a metrics registry",
        r'AdmissionLane|admission|queue_capacity|latency_cycles|wait_cycles|batch_limit'
        r'|mean_gap|\.inc\(|\.observe\(|set_gauge|"merge"',
        ("src/repro/serving", "src/repro/telemetry", "src/repro/bench", "tools"),
        None,
    ),
    (
        "The whole backend in stages - closures.py is a leaf only the engine imports",
        r"^\s*(from|import) repro\.lir(\.closures| import .*\bclosures\b)",
        ("src",),
        "src/repro/engine/runtime_engine.py",
    ),
    (
        "The whole backend in stages - the host-type map is touched only by its own module",
        r"_kinds\b|kinds\[|kinds = \{",
        ("src/repro/lir",),
        "src/repro/lir/hostkinds.py",
    ),
    (
        "The whole backend in stages - closures.py emits through the op templates",
        r'"(add_i|sub_i|mul_i|neg_i|bitop_i|add_d|div_d|unbox|typebarrier|guardshape'
        r'|boundscheck|getprop_v|setprop_v|call|new)"',
        ("src/repro/lir/closures.py",),
        None,
    ),
    (
        "Nothing only a test reads - no this tags, replay harness, chaos selectors, "
        "executor env var or dead helpers",
        r"last_call|exercise_entry_guards|this_tags|this_speculation|REPRO_EXECUTOR"
        r"|EXECUTOR_ENV_VAR|fully_fired_binaries|_sweep_tombstones|has_global"
        r"|immediate_dominator",
        ("src", "tools", "examples"),
        None,
    ),
    (
        "One live ledger - EngineStats reads the live counters; no copy step, "
        "trace clock or retrain-noop detector",
        r"def trace_clock|\.trace_clock\(|self\.stats\.(interp_ops|ic_transitions"
        r"|native_cycles|native_instructions|disk_[a-z]+) =|retrain_noop"
        r'|shape_record_would_change|\["ic_fingerprint"\]',
        ("src", "tools"),
        None,
    ),
    (
        "No opcode nothing emits - the bytecompiler never emitted SWAP",
        r"Op\.SWAP|_op_swap",
        ("src", "tools", "tests"),
        None,
    ),
)


def _files(root, path):
    """Every file at or under ``root/path``, as repository-relative paths."""
    full = os.path.join(root, path)
    if os.path.isfile(full):
        yield path
        return
    for dirpath, dirnames, filenames in os.walk(full):
        dirnames[:] = sorted(name for name in dirnames if name != "__pycache__")
        for filename in sorted(filenames):
            yield os.path.relpath(os.path.join(dirpath, filename), root)


def _lines(root, relative):
    try:
        with open(os.path.join(root, relative), encoding="utf-8") as handle:
            return handle.read().split("\n")
    except (OSError, UnicodeDecodeError):
        return []  # binary, like grep's "Binary file ... matches" skip


def matches(root=REPO_ROOT):
    """``[(reason, "path:line: text")]`` for every pinned name found."""
    own = os.path.relpath(os.path.abspath(__file__), REPO_ROOT)
    found = []
    for reason, pattern, paths, allowed in ABSENT:
        regex = re.compile(pattern)
        for path in paths:
            for relative in _files(root, path):
                if relative in (own, allowed):
                    continue
                for number, line in enumerate(_lines(root, relative), 1):
                    if regex.search(line):
                        found.append((reason, "%s:%d: %s" % (relative, number, line.strip())))
    return found


def main(root=REPO_ROOT):
    found = matches(root)
    for reason, where in found:
        print("%s\n  %s" % (reason, where), file=sys.stderr)
    if found:
        return 1
    print("absent_names: %d patterns, no match" % len(ABSENT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
