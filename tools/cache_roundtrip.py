#!/usr/bin/env python
"""CI check: the persistent code cache round-trips bit-identically.

Runs the deterministic web workload twice in *separate interpreter
processes* sharing one cache directory, each phase under the default
configuration and then under ``FULL_SPEC`` (parameter specialization,
so the keys hold argument values — plain objects and arrays among them,
relocated on load):

1. **cold** — cleared directory; every compile misses and stores;
2. **warm** — same directory; every compile the cold phase stored loads
   from disk (``disk hits`` must equal the cold ``stores``, and no
   compile may be uncacheable) and so does each program's bytecode: the phase counts
   its calls into ``parse``, ``compile_program`` and the loop-rotation
   planner, and all three must be 0 (docs/COMPILE_PIPELINE.md, "Program
   entries").  On the ``whole`` backend it also counts *emissions*: a
   hit links its stored module (docs/CODEGEN.md, "Caching"), so the
   emitter must have run exactly ``compiles - disk hits`` times; the
   excess is refused links, reported and (outside ``--history``) fatal.
   The ``closure`` backend stores no module, so there the warm phase
   re-translates every hit and must still match bit for bit.

The check passes only when both phases print the same guest output and
the same ``EngineStats.as_dict()`` ledger — byte for byte once
JSON-encoded, modulo the host-side disk-traffic counters
(``DISK_TRAFFIC_KEYS``: the cold run stores, the warm run hits, by
design) — proving the disk cache is a pure host-time optimization
(docs/COMPILE_PIPELINE.md).  Separate processes make the comparison
honest: nothing in-memory can leak between phases.

``--history`` checks instead that a cache key does not depend on what
the process ran before: the cold process fills the store running
``objects/poly-records`` alone; the warm process first runs the two
other ``objects`` programs on engines of their own (no cache attached)
and must then hit **every** key, and print the same ledgers.  Shape ids
enter the key through the IC fingerprint, and code ids label the
ledgers, so this holds only because each engine numbers its own shape
tree (docs/SHAPES.md) and code objects.  The shape numbering is what a
link record re-checks, so this mode prints its linked / refused counts
too.

Usage::

    PYTHONPATH=src python tools/cache_roundtrip.py [--dir DIR] [--backend closure] [--history]

Exit status 1 on any mismatch, 0 otherwise.  ``--phase`` is internal
(the subprocess entry point).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


#: ``--history``: the program whose keys must not move, and the
#: suite-mates the warm process runs first.
HISTORY_SUITE = "objects"
HISTORY_PROGRAM = "poly-records"


#: ``(module, attribute)`` of the front-half stages a warm run must not
#: enter, each where its caller reads it.
FRONT_HALF = (
    ("repro.jsvm.bytecompiler", "parse"),
    ("repro.jsvm.bytecompiler", "compile_program"),
    ("repro.opts.loop_inversion", "_plan"),
)


def count_front_half_calls():
    """Wrap every :data:`FRONT_HALF` stage; returns the live count dict."""
    import importlib

    counts = {}

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    for module_name, attribute in FRONT_HALF:
        module = importlib.import_module(module_name)
        counts[attribute] = 0
        setattr(module, attribute, counting(attribute, getattr(module, attribute)))
    return counts


def run_phase(cache_dir, backend, phase, history):
    """One measured pass: run the workload through the cache at ``cache_dir``.

    Prints a JSON payload with the guest output, the full stats ledger,
    the cache counters and the front-half call counts of the cached
    runs; consumed by :func:`main` in check mode.
    """
    from repro.cache import DiskCodeCache
    from repro.engine.config import FULL_SPEC
    from repro.engine.runtime_engine import Engine
    from repro.workloads.web import website_programs

    if history:
        from repro.workloads import suite

        programs = {bench.name: bench.source for bench in suite(HISTORY_SUITE)}
        sources = [programs.pop(HISTORY_PROGRAM)]
        if phase == "warm":
            for name in sorted(programs):
                Engine(executor_backend=backend).run_source(programs[name])
    else:
        sources = website_programs()
    cache = DiskCodeCache(root=cache_dir)
    front_half = count_front_half_calls()  # after the --history warm-up runs
    output = []
    stats = []
    modules = {"linked": 0, "emitted": 0}
    for config in ({}, {"config": FULL_SPEC}):
        for source in sources:
            engine = Engine(executor_backend=backend, code_cache=cache, **config)
            output.extend(engine.run_source(source))
            stats.append(engine.stats.as_dict())
            # Plain integers on the whole backend's executor only.
            modules["linked"] += getattr(engine.executor, "modules_linked", 0)
            modules["emitted"] += getattr(engine.executor, "modules_emitted", 0)
    print(
        json.dumps(
            {
                "output": output,
                "stats": stats,
                "cache": cache.stats(),
                "front_half": front_half,
                "programs": len(sources),
                "runs": len(stats),
                "modules": modules,
            }
        )
    )
    return 0


def _spawn(phase, cache_dir, backend, history):
    """Run one phase in a fresh interpreter; returns its parsed payload."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--phase",
        phase,
        "--dir",
        cache_dir,
        "--backend",
        backend,
    ]
    if history:
        command.append("--history")
    proc = subprocess.run(
        command,
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise SystemExit(
            "%s phase failed (exit %d):\n%s" % (phase, proc.returncode, proc.stderr)
        )
    return json.loads(proc.stdout)


def main(argv=None):
    """Run the round trip; returns the process exit code."""
    from repro.engine.runtime_engine import (
        DEFAULT_EXECUTOR_BACKEND,
        EXECUTOR_BACKENDS,
    )

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR, else a temp dir)",
    )
    parser.add_argument(
        "--backend",
        default=DEFAULT_EXECUTOR_BACKEND,
        choices=list(EXECUTOR_BACKENDS),
        help="executor backend (default: the engine's, %s)" % DEFAULT_EXECUTOR_BACKEND,
    )
    parser.add_argument(
        "--history",
        action="store_true",
        help="warm process runs other programs first and must still hit every key",
    )
    parser.add_argument(
        "--phase", default=None, choices=["cold", "warm"], help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if args.phase is not None:
        return run_phase(args.dir, args.backend, args.phase, args.history)

    cache_dir = args.dir or os.environ.get("REPRO_CACHE_DIR")
    cleanup = False
    if not cache_dir:
        cache_dir = tempfile.mkdtemp(prefix="repro-roundtrip-")
        cleanup = True
    try:
        shutil.rmtree(os.path.join(cache_dir, "code"), ignore_errors=True)
        cold = _spawn("cold", cache_dir, args.backend, args.history)
        warm = _spawn("warm", cache_dir, args.backend, args.history)

        failures = []
        if cold["cache"]["stores"] == 0:
            failures.append("cold phase stored nothing")
        if warm["cache"]["hits"] == 0:
            failures.append("warm phase had no disk hits")
        if warm["cache"]["hits"] != cold["cache"]["stores"]:
            failures.append(
                "warm phase hit %d of the %d keys the cold phase stored%s"
                % (
                    warm["cache"]["hits"],
                    cold["cache"]["stores"],
                    ": cache keys depend on process history" if args.history else "",
                )
            )
        if warm["cache"]["uncacheable"]:
            failures.append(
                "warm phase refused to key %d compile(s)" % warm["cache"]["uncacheable"]
            )
        if warm["cache"]["stores"] != 0:
            failures.append(
                "warm phase re-stored %d artifact(s)" % warm["cache"]["stores"]
            )
        parsed = cold["front_half"]["parse"]
        if not cold["programs"] <= parsed == cold["cache"]["program_stores"]:
            failures.append(
                "cold phase parsed %d times for %d programs and %d program stores: "
                "the call counter is not where compile_source reads it"
                % (parsed, cold["programs"], cold["cache"]["program_stores"])
            )
        for stage, calls in sorted(warm["front_half"].items()):
            if calls:
                failures.append(
                    "warm phase called %s %d time(s): a cached program "
                    "crossed the front half" % (stage, calls)
                )
        if warm["cache"]["program_loads"] != warm["runs"]:
            failures.append(
                "warm phase loaded %d program entries for %d runs"
                % (warm["cache"]["program_loads"], warm["runs"])
            )
        links = ""
        if args.backend == "whole":
            linked = warm["modules"]["linked"]
            compiled = sum(stats["compiles"] for stats in warm["stats"]) - warm["cache"]["hits"]
            refused = warm["modules"]["emitted"] - compiled
            links = " (%d linked, %d refused)" % (linked, refused)
            if linked + refused != warm["cache"]["hits"]:
                failures.append(
                    "warm phase linked %d and emitted %d modules for %d hits and "
                    "%d compiles: a binary was translated twice or never"
                    % (linked, warm["modules"]["emitted"], warm["cache"]["hits"], compiled)
                )
            if refused and not args.history:
                failures.append(
                    "warm phase refused %d of %d links: the emitter ran for a hit"
                    % (refused, warm["cache"]["hits"])
                )
        if cold["output"] != warm["output"]:
            failures.append("guest output differs between cold and warm")
        from repro.engine.stats import DISK_TRAFFIC_KEYS

        for index, (cold_stats, warm_stats) in enumerate(
            zip(cold["stats"], warm["stats"])
        ):
            for key in cold_stats:
                if key in DISK_TRAFFIC_KEYS:
                    continue  # host-side cache accounting differs by design
                if cold_stats[key] != warm_stats[key]:
                    failures.append(
                        "program %d: stats[%r] %r (cold) != %r (warm)"
                        % (index, key, cold_stats[key], warm_stats[key])
                    )
        if failures:
            print("CACHE ROUND TRIP FAILED:")
            for failure in failures:
                print("  " + failure)
            return 1
        print(
            "cache round trip OK: %d stores cold, %d hits warm%s, 0 uncacheable, "
            "%d program entries loaded with 0 front-half calls, "
            "output and stats bit-identical (%s backend, dir %s)"
            % (
                cold["cache"]["stores"],
                warm["cache"]["hits"],
                links,
                warm["cache"]["program_loads"],
                args.backend,
                cache_dir,
            )
        )
        return 0
    finally:
        if cleanup:
            shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
