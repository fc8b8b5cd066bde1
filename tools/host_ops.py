#!/usr/bin/env python
"""Count the host-level work behind a served pass: frames per call, helper calls.

Replays a seeded fleet schedule over the serving catalog (both built by
``repro.serving.fleet``) through ``TenantHost.execute_request`` in this
process, under ``sys.setprofile``, and prints exact counts:

* **frames per native call** — Python ``call`` events from
  ``Interpreter.call_function`` down to the callee's generated ``_w``,
  both inclusive, as a histogram split by specialized / generic binary.
  The mode is the warm path; the tail is first calls and compiles.
* **helper calls** — Python calls into the generic operator and coercion
  helpers that host-typed ``whole`` code is meant to keep in line
  (``binary_op``, ``unary_op``, ``to_number``, ``to_int32``,
  ``normalize_number``), the globals helpers (``get_global``,
  ``set_global``; also how many of those calls came from generated code
  rather than the interpreter) and the feedback recorders
  (``record_args``, its full walk, ``type_tag``).

These are counts made by the program about itself: they repeat exactly
from run to run, say nothing about seconds, and answer "how much of what
executes goes through a helper" (ROADMAP audit "``whole``'s typed
arithmetic"; before/after table in docs/PERF.md).

Usage::

    PYTHONPATH=src python tools/host_ops.py [--seed N] [--requests N] [--json]
    PYTHONPATH=src python tools/host_ops.py --check   # CI: fail above the budget

``--check`` compares against ``tools/host_ops_budget.json`` (default
seed and request count only) and exits 1 when any count is above its
budget or a warm call takes more frames than budgeted.
"""

import argparse
import collections
import json
import os
import shutil
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

BUDGET_PATH = os.path.join(REPO_ROOT, "tools", "host_ops_budget.json")

#: Fleet shape of the replay: the serving benchmark's (8 tenants, 6
#: catalog programs of 10 functions, 600 requests, shared sharded cache).
TENANTS = 8
PROGRAMS = 6
FUNCTIONS_PER_PROGRAM = 10
REQUESTS = 600
CATALOG_SEED = 20130223
SCHEDULE_SEED = 1


#: Helpers also counted by caller: how many of the calls came from
#: generated code (``_w``) rather than from the interpreter.
NATIVE_SPLIT = ("get_global", "set_global")


def counted_functions():
    """``{label: code object}`` of every helper whose calls are counted."""
    from repro.jsvm import operations, values
    from repro.jsvm.feedback import TypeFeedback
    from repro.jsvm.runtime import Runtime

    functions = {
        "binary_op": operations.binary_op,
        "unary_op": operations.unary_op,
        "to_number": values.to_number,
        "to_int32": operations.to_int32,
        "normalize_number": values.normalize_number,
        "get_global": Runtime.get_global,
        "set_global": Runtime.set_global,
        "record_args": TypeFeedback.record_args,
        "record_args_walk": TypeFeedback._walk_args,
        "type_tag": values.type_tag,
    }
    return dict((label, fn.__code__) for label, fn in functions.items())


class CallCounter(object):
    """A ``sys.setprofile`` callback counting helper calls and call-path frames."""

    def __init__(self):
        from repro.jsvm.interpreter import Interpreter

        self.labels = dict((code, label) for label, code in counted_functions().items())
        self.counts = dict.fromkeys(self.labels.values(), 0)
        self.counts.update((label + "_from_native", 0) for label in NATIVE_SPLIT)
        self.call_function = Interpreter.call_function.__code__
        self.execute = Interpreter.execute.__code__
        #: frames from call_function to ``_w`` -> activations, per binary kind
        self.frames = {
            "specialized": collections.Counter(),
            "generic": collections.Counter(),
        }
        self.open = False
        self.depth = 0

    def __call__(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        label = self.labels.get(code)
        if label is not None:
            self.counts[label] += 1
            if label in NATIVE_SPLIT and frame.f_back.f_code.co_name == "_w":
                self.counts[label + "_from_native"] += 1
        if code is self.call_function:
            self.open = True
            self.depth = 1
        elif self.open:
            self.depth += 1
            if code.co_name == "_w":
                native = frame.f_back.f_locals["native"]
                kind = "specialized" if native.meta["specialized"] else "generic"
                self.frames[kind][self.depth] += 1
                self.open = False
            elif code is self.execute:
                # Interpreted (or bailout-resumed): not a native activation.
                self.open = False


def replay(seed, requests):
    """Serve the schedule once on a fresh host; returns the filled counter."""
    from repro.serving.fleet import FleetProfile, build_catalog, generate_schedule
    from repro.serving.isolate import TenantHost

    def profile(profile_seed):
        return FleetProfile(
            tenants=TENANTS,
            programs=PROGRAMS,
            requests=requests,
            seed=profile_seed,
            functions_per_program=FUNCTIONS_PER_PROGRAM,
        )

    catalog = build_catalog(profile(CATALOG_SEED))
    schedule = generate_schedule(profile(seed))
    root = tempfile.mkdtemp(prefix="repro-host-ops-")
    counter = CallCounter()
    try:
        host = TenantHost(cache_mode="shared", cache_root=root, catalog=catalog)
        sys.setprofile(counter)
        try:
            for record in schedule:
                response = host.execute_request(
                    {"tenant": record["tenant"], "program": record["program"]}
                )
                if response["status"] != "ok":
                    raise SystemExit("request failed: %r" % (response,))
        finally:
            sys.setprofile(None)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return counter


def summarize(counter):
    """The report as a plain dict (what ``--json`` prints and ``--check`` reads)."""
    report = {"helper_calls": dict(sorted(counter.counts.items())), "frames_per_call": {}}
    for kind, histogram in counter.frames.items():
        total = sum(histogram.values())
        if not total:
            continue
        warm, activations = max(histogram.items(), key=lambda item: (item[1], -item[0]))
        report["frames_per_call"][kind] = {
            "activations": total,
            "warm_frames": warm,
            "warm_share": round(activations / total, 4),
            "min_frames": min(histogram),
        }
    return report


def check(report, budget):
    """Messages for every count above its budget (empty: within budget)."""
    problems = []
    for label, limit in sorted(budget["helper_calls"].items()):
        seen = report["helper_calls"].get(label, 0)
        if seen > limit:
            problems.append("%s: %d calls, budget %d" % (label, seen, limit))
    for kind, limit in sorted(budget["warm_frames"].items()):
        seen = report["frames_per_call"].get(kind, {}).get("warm_frames")
        if seen is None or seen > limit:
            problems.append("%s warm call: %r frames, budget %d" % (kind, seen, limit))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=SCHEDULE_SEED, help="schedule seed")
    parser.add_argument("--requests", type=int, default=REQUESTS)
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    parser.add_argument(
        "--check", action="store_true", help="fail above tools/host_ops_budget.json"
    )
    args = parser.parse_args(argv)
    if args.check and (args.seed != SCHEDULE_SEED or args.requests != REQUESTS):
        parser.error("--check is defined for the default seed and request count")

    report = summarize(replay(args.seed, args.requests))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("served pass: seed %d, %d requests" % (args.seed, args.requests))
        for kind, row in sorted(report["frames_per_call"].items()):
            print(
                "frames per %-11s call: %d (%.1f%% of %d activations; fewest %d)"
                % (
                    kind,
                    row["warm_frames"],
                    100 * row["warm_share"],
                    row["activations"],
                    row["min_frames"],
                )
            )
        for label, count in sorted(report["helper_calls"].items()):
            print("%-24s %9d" % (label, count))
    if args.check:
        with open(BUDGET_PATH) as handle:
            budget = json.load(handle)
        problems = check(report, budget)
        for problem in problems:
            print("OVER BUDGET: " + problem, file=sys.stderr)
        if problems:
            return 1
        print("host_ops: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
