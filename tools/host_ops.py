#!/usr/bin/env python
"""Count the host-level work behind a served pass: frames per call, helper calls.

Replays a seeded fleet schedule over the serving catalog (both built by
``repro.serving.fleet``) through ``TenantHost.execute_request`` in this
process, under ``sys.setprofile``, and prints exact counts:

* **frames per native call** — Python ``call`` events from the call's
  entry down to the callee's generated ``_w``, both inclusive, as a
  histogram split by specialized / generic binary.  The entry is the
  warm one, ``WholeExecutor.call``, which generated code calls and
  ``Interpreter.call_function`` hands each guest call to (the count
  starts again there), or ``call_function`` on an engine without one.
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

``--interp-ops`` counts something else, the same way: the bytecode ops the
*interpreter* executes in one warm page-load pass (hostbench's
``pageload-warm``: its 16 pages of ``--seed``, default 1, against a cache
a cold pass just filled) — per opcode, per adjacent pair within one
activation, and by where they ran: at top level, in a function called
once, in one called again but never compiled, in one before its first
compile, or in one that had been compiled (a bailout's resume, a
discarded binary).  The interpreter is the largest layer of a warm page;
this is the table to read before changing it (docs/PERF.md, "What the
interpreter runs on a warm page").  The same pass counts what its cache
hits cost in decoding: code-object digests computed
(``_code_fingerprint`` walks; a program entry carries its tree's, so a
warm pass takes none) and ``decode_value`` calls per hit (docs/PERF.md,
"A warm hit decodes once").

Usage::

    PYTHONPATH=src python tools/host_ops.py [--seed N] [--requests N] [--json]
    PYTHONPATH=src python tools/host_ops.py --check   # CI: fail above the budget
    PYTHONPATH=src python tools/host_ops.py --interp-ops [--seed N] [--json]

``--check`` compares against ``tools/host_ops_budget.json`` (default
seed and request count only) and exits 1 when any count is above its
budget, a warm call takes more frames than budgeted, or fewer calls of
a binary kind take the warm path than its floor (a specialized call
that goes the long way through ``Engine._call_policy`` is not warm).
It then runs the ``--interp-ops`` pass of the default page seed and
holds its warm-page decode counts to their budgets as well.
"""

import argparse
import collections
import contextlib
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
        from repro.lir.wholefn import WholeExecutor

        self.labels = dict((code, label) for label, code in counted_functions().items())
        self.counts = dict.fromkeys(self.labels.values(), 0)
        self.counts.update((label + "_from_native", 0) for label in NATIVE_SPLIT)
        self.call_function = Interpreter.call_function.__code__
        self.call = WholeExecutor.call.__code__
        self.execute = Interpreter.execute.__code__
        #: frames from the call's entry to ``_w`` -> activations, per binary kind
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
        if code is self.call or code is self.call_function:
            # An entry: the warm one, or the interpreter's, which hands
            # a guest call on to the warm one when there is one.
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


#: Where an interpreted op ran, in report order.
OP_PLACES = (
    "top level",
    "function called once",
    "function called again, never compiled",
    "function before its first compile",
    "function after a compile",
)

PAGE_SEED = 1


class InterpOpCounter(object):
    """Stands in for ``Interpreter._run``: the same loop, counting what it runs."""

    def __init__(self):
        self.opcodes = collections.Counter()
        self.pairs = collections.Counter()
        #: code object -> [ops run before its first compile, ops after, calls]
        self.per_code = {}
        self.compiled = set()
        self._streams = {}

    def run(self, interpreter, frame, pc, stack):
        from repro.jsvm import interpreter as module

        code = frame.code
        table = code.threaded
        if table is None:
            table = code.threaded = module.build_threaded(code)
        ops = self._streams.get(code)
        if ops is None:
            ops = self._streams[code] = [instr.op for instr in code.instructions]
        row = self.per_code.setdefault(code, [0, 0, 0])
        if pc == 0:
            row[2] += 1
        after = code in self.compiled
        ctx = module._DispatchContext(interpreter, frame, stack, code.feedback)
        opcodes = self.opcodes
        pairs = self.pairs
        previous = None
        executed = 0
        try:
            while True:
                handler, arg = table[pc]
                interpreter.ops_executed += 1
                op = ops[pc]
                opcodes[op] += 1
                if previous is not None:
                    pairs[previous, op] += 1
                previous = op
                executed += 1
                pc = handler(ctx, pc + 1, arg)
                if pc < 0:
                    return ctx.return_value
        finally:
            row[after] += executed

    def places(self):
        """Ops per :data:`OP_PLACES` entry, decided once the pass is over."""
        totals = dict.fromkeys(OP_PLACES, 0)
        for code, (before, after, calls) in self.per_code.items():
            if code.is_script:
                totals["top level"] += before + after
                continue
            totals["function after a compile"] += after
            if code in self.compiled:
                totals["function before its first compile"] += before
            elif calls == 1:
                totals["function called once"] += before
            else:
                totals["function called again, never compiled"] += before
        return totals


@contextlib.contextmanager
def counting_decodes():
    """While open, count code-object digests computed and ``decode_value`` calls."""
    from repro.cache import disk, serialize

    counts = {"digests": 0, "decodes": 0}
    fingerprint, decode = disk._code_fingerprint, serialize.decode_value

    def counted_fingerprint(code):
        counts["digests"] += code.fingerprint is None
        return fingerprint(code)

    def counted_decode(*args):
        counts["decodes"] += 1
        return decode(*args)

    # Both recurse through their module global, so nested calls count too.
    disk._code_fingerprint, serialize.decode_value = counted_fingerprint, counted_decode
    try:
        yield counts
    finally:
        disk._code_fingerprint, serialize.decode_value = fingerprint, decode


def interp_ops(seed):
    """Count the interpreter's ops over one warm page-load pass of ``seed``."""
    sys.path.insert(0, REPO_ROOT)
    from hostbench import workloads

    from repro.cache import DiskCodeCache
    from repro.engine.config import FULL_SPEC
    from repro.engine.runtime_engine import Engine
    from repro.engine.stats import EngineStats
    from repro.jsvm.interpreter import Interpreter

    pages = workloads.page_operations(seed)
    root = tempfile.mkdtemp(prefix="repro-interp-ops-")
    counter = InterpOpCounter()
    run, record_compile = Interpreter._run, EngineStats.record_compile

    def recording(stats, code, *args, **kwargs):
        counter.compiled.add(code)
        return record_compile(stats, code, *args, **kwargs)

    try:
        for _name, source in pages:  # the cold pass: fills the cache
            Engine(config=FULL_SPEC, code_cache=DiskCodeCache(root=root)).run_source(source)
        Interpreter._run = lambda self, frame, pc, stack: counter.run(self, frame, pc, stack)
        EngineStats.record_compile = recording
        executed = hits = 0
        with counting_decodes() as decoding:
            for _name, source in pages:
                cache = DiskCodeCache(root=root)
                engine = Engine(config=FULL_SPEC, code_cache=cache)
                engine.run_source(source)
                executed += engine.interpreter.ops_executed
                hits += cache.hits
    finally:
        Interpreter._run, EngineStats.record_compile = run, record_compile
        shutil.rmtree(root, ignore_errors=True)
    total = sum(counter.opcodes.values())
    if total != executed:
        raise SystemExit("counted %d ops, the interpreter reports %d" % (total, executed))
    return {
        "seed": seed,
        "pages": len(pages),
        "ops": total,
        "places": counter.places(),
        "opcodes": dict(counter.opcodes.most_common()),
        "pairs": [[first, second, count] for (first, second), count in counter.pairs.most_common()],
        "warm_page": {
            "cache_hits": hits,
            "fingerprint_digests": decoding["digests"],
            "decode_value_calls": decoding["decodes"],
            "decode_value_per_hit": round(decoding["decodes"] / hits, 2) if hits else None,
        },
    }


def print_interp_ops(report, top=20):
    total = report["ops"]
    print(
        "warm page-load pass: seed %d, %d pages, %d interpreter ops"
        % (report["seed"], report["pages"], total)
    )
    print("\nwhere they ran")
    for place in OP_PLACES:
        count = report["places"][place]
        print("  %-40s %8d  %5.1f%%" % (place, count, 100.0 * count / total))
    print("\nopcodes (all %d)" % len(report["opcodes"]))
    for op, count in report["opcodes"].items():
        print("  %-16s %8d  %5.1f%%" % (op, count, 100.0 * count / total))
    print("\nadjacent pairs (top %d of %d)" % (top, len(report["pairs"])))
    for first, second, count in report["pairs"][:top]:
        print("  %-28s %8d  %5.1f%%" % (first + " " + second, count, 100.0 * count / total))
    print_warm_page(report["warm_page"])


def print_warm_page(row):
    print("\ncache hits of the pass: %d" % row["cache_hits"])
    print("  %-28s %8d" % ("fingerprint digests", row["fingerprint_digests"]))
    print(
        "  %-28s %8d  (%s per hit)"
        % ("decode_value calls", row["decode_value_calls"], row["decode_value_per_hit"])
    )


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
    for kind, floor in sorted(budget["warm_share_floor"].items()):
        seen = report["frames_per_call"].get(kind, {}).get("warm_share")
        if seen is None or seen < floor:
            problems.append("%s warm share: %r, floor %r" % (kind, seen, floor))
    for label, limit in sorted(budget["warm_page"].items()):
        seen = report["warm_page"][label]  # None: the pass had no cache hit
        if seen is None or seen > limit:
            problems.append("warm page %s: %r, budget %r" % (label, seen, limit))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--seed", type=int, default=None, help="schedule seed (with --interp-ops: page seed)"
    )
    parser.add_argument("--requests", type=int, default=REQUESTS)
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    parser.add_argument(
        "--check", action="store_true", help="fail above tools/host_ops_budget.json"
    )
    parser.add_argument(
        "--interp-ops",
        action="store_true",
        help="count the interpreter's ops over one warm page-load pass instead",
    )
    args = parser.parse_args(argv)
    if args.interp_ops:
        report = interp_ops(PAGE_SEED if args.seed is None else args.seed)
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print_interp_ops(report)
        return 0
    if args.seed is None:
        args.seed = SCHEDULE_SEED
    if args.check and (args.seed != SCHEDULE_SEED or args.requests != REQUESTS):
        parser.error("--check is defined for the default seed and request count")

    report = summarize(replay(args.seed, args.requests))
    if args.check:
        report["warm_page"] = interp_ops(PAGE_SEED)["warm_page"]
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
            print_warm_page(report["warm_page"])
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
