#!/usr/bin/env python
"""What a finished engine leaves for the cycle collector, and who holds it.

Ownership in ``src/repro`` is a tree (docs/PERF.md, "Memory and
lifetime"): dropping the last reference to an ``Engine`` frees the page
by reference count.  This tool checks that by looking at what is left
when it should be nothing.  With the collector switched off it runs a
workload the way ``hostbench/lifetime.py`` does — a fresh
``Engine(config=FULL_SPEC)`` per program, ``run_source``, drop — and then
collects once with ``gc.DEBUG_SAVEALL``, so every object that only the
collector could free is in hand.  It prints

* the **census**: unreachable objects by type, total and per program;
* the **cycles** that hold them: the strongly-connected components of
  the reference graph among those objects, grouped by type signature,
  with how many there are and how many objects each group keeps alive
  (a two-object cycle that pins a whole MIR graph shows as such);
* the **collector's bill** for one ordinary pass (collector on): the
  number of collections per generation and their summed seconds, from a
  ``gc.callbacks`` probe.

Usage::

    PYTHONPATH=src python tools/gc_census.py [--workload pages|suites]
        [--pages N] [--cache cold|warm|off]
    PYTHONPATH=src python tools/gc_census.py --check   # CI

``--check`` exits 1 when the census holds an instance of any class
defined under ``repro.`` or more than :data:`BUDGET_PER_PROGRAM` objects
per program.  The pages are hostbench's (``hostbench/workloads.py``), so
the numbers line up with ``pageload-cold`` / ``pageload-warm``.
"""

import argparse
import collections
import gc
import os
import shutil
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(1, REPO_ROOT)

#: The page-generator seed every quoted census uses (docs/PERF.md).
SEED = 1

#: Unreachable objects one finished program may leave: room for what a
#: guest program knots itself (``a.self = a``).  The generated pages and
#: the suites make none and read 0; the seed read 10,677 per warm page.
BUDGET_PER_PROGRAM = 300


def type_name(value):
    kind = type(value)
    return "%s.%s" % (kind.__module__, kind.__qualname__)


def operations_for(workload, pages):
    """``[(name, source)]``: hostbench's pages, or the suite programs."""
    from hostbench import workloads

    if workload == "pages":
        return workloads.page_operations(SEED, pages)
    return workloads.suite_operations(pages)


def run_pass(operations, cache_root):
    """Every program once on a fresh default engine, as hostbench does."""
    from repro import FULL_SPEC, Engine
    from repro.cache import DiskCodeCache

    for _name, source in operations:
        kwargs = {}
        if cache_root is not None:
            kwargs["code_cache"] = DiskCodeCache(cache_root)
        engine = Engine(config=FULL_SPEC, **kwargs)
        engine.run_source(source)
        del engine, kwargs


def census(operations, cache_root):
    """Run with the collector off; return what only a collection frees."""
    gc.collect()
    gc.disable()
    try:
        run_pass(operations, cache_root)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        gc.enable()
    return found


def components(objects):
    """Strongly-connected components among ``objects`` (Tarjan, iterative).

    Returns ``(sccs, edges)``: each SCC as a list of indices into
    ``objects`` — only those that are cycles (more than one member, or a
    self reference) — and the adjacency list the search used.
    """
    index_of = {id(value): index for index, value in enumerate(objects)}
    edges = [
        [index_of[id(target)] for target in gc.get_referents(value) if id(target) in index_of]
        for value in objects
    ]
    order = [None] * len(objects)
    low = [0] * len(objects)
    on_stack = [False] * len(objects)
    stack = []
    sccs = []
    counter = 0
    for root in range(len(objects)):
        if order[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            node, position = work.pop()
            if position == 0:
                order[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            targets = edges[node]
            advanced = False
            while position < len(targets):
                target = targets[position]
                position += 1
                if order[target] is None:
                    work.append((node, position))
                    work.append((target, 0))
                    advanced = True
                    break
                if on_stack[target]:
                    low[node] = min(low[node], order[target])
            if advanced:
                continue
            if low[node] == order[node]:
                members = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    members.append(member)
                    if member == node:
                        break
                if len(members) > 1 or node in edges[node]:
                    sccs.append(members)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs, edges


def cycle_groups(objects):
    """The cycles by type signature: how many, how large, what they pin."""
    sccs, edges = components(objects)
    groups = {}
    for members in sccs:
        kinds = collections.Counter(type_name(objects[index]) for index in members)
        signature = tuple(sorted(kinds.items(), key=lambda item: (-item[1], item[0])))
        groups.setdefault(signature, []).append(members)
    report = []
    for signature, group in groups.items():
        seen = set()
        frontier = [index for members in group for index in members]
        seen.update(frontier)
        while frontier:
            node = frontier.pop()
            for target in edges[node]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        report.append(
            {
                "signature": ["%s x%d" % item for item in signature],
                "cycles": len(group),
                "members": sum(len(members) for members in group),
                "kept_alive": len(seen),
            }
        )
    report.sort(key=lambda row: -row["kept_alive"])
    return report


def collector_bill(operations, cache_root):
    """One ordinary pass: collections per generation and their seconds."""
    counts = [0, 0, 0]
    seconds = [0.0, 0.0, 0.0]
    started = [0.0]

    def probe(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            counts[info["generation"]] += 1
            seconds[info["generation"]] += time.perf_counter() - started[0]

    gc.collect()
    gc.callbacks.append(probe)
    begin = time.perf_counter()
    try:
        run_pass(operations, cache_root)
    finally:
        gc.callbacks.remove(probe)
    return {
        "pass_s": round(time.perf_counter() - begin, 4),
        "collections": sum(counts),
        "full_collections": counts[2],
        "collection_s": round(sum(seconds), 4),
        "full_collection_s": round(seconds[2], 4),
    }


def measure(workload, pages, cache):
    operations = operations_for(workload, pages)
    scratch = tempfile.mkdtemp(prefix="gc-census-")
    cache_root = None if cache == "off" else os.path.join(scratch, "cache")
    try:
        if cache == "warm":
            run_pass(operations, cache_root)
        objects = census(operations, cache_root)
        by_type = collections.Counter(type_name(value) for value in objects)
        groups = cycle_groups(objects)
        del objects
        gc.collect()
        if cache == "cold":
            shutil.rmtree(cache_root)
        bill = collector_bill(operations, cache_root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    total = sum(by_type.values())
    return {
        "workload": workload,
        "cache": cache,
        "programs": len(operations),
        "unreachable": total,
        "per_program": round(total / float(len(operations)), 1),
        "by_type": dict(by_type.most_common()),
        "cycles": groups,
        "collector": bill,
    }


def failures(result):
    found = [
        "%s x%d" % (name, count)
        for name, count in result["by_type"].items()
        if name.startswith("repro.")
    ]
    problems = []
    if found:
        problems.append("engine-owned classes wait for the collector: " + ", ".join(found))
    if result["per_program"] > BUDGET_PER_PROGRAM:
        problems.append(
            "%.1f unreachable objects per program, budget %d"
            % (result["per_program"], BUDGET_PER_PROGRAM)
        )
    return problems


def format_report(result):
    lines = [
        "%s, cache %s, seed %d: %d programs, %d unreachable objects (%.1f per program)"
        % (
            result["workload"],
            result["cache"],
            SEED,
            result["programs"],
            result["unreachable"],
            result["per_program"],
        )
    ]
    for name, count in list(result["by_type"].items())[:25]:
        lines.append("  %7d  %s" % (count, name))
    lines.append("cycles holding them (type signature: cycles, members, objects kept alive):")
    for row in result["cycles"][:15]:
        lines.append(
            "  %5d cycles %6d members %6d kept alive  {%s}"
            % (row["cycles"], row["members"], row["kept_alive"], ", ".join(row["signature"][:6]))
        )
    bill = result["collector"]
    lines.append(
        "collector, one pass of %.3f s: %d collections (%d full), %.4f s (%.4f s full)"
        % (
            bill["pass_s"],
            bill["collections"],
            bill["full_collections"],
            bill["collection_s"],
            bill["full_collection_s"],
        )
    )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("pages", "suites"), default="pages")
    parser.add_argument("--pages", type=int, default=4, help="programs to run (default 4)")
    parser.add_argument("--cache", choices=("cold", "warm", "off"), default="warm")
    parser.add_argument("--check", action="store_true", help="exit 1 over the budget")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.pages, args.cache)
    print(format_report(result))
    if args.check:
        problems = failures(result)
        for problem in problems:
            print("FAIL: " + problem, file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
