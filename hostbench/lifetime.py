"""One lifetime of one workload in a fresh process: set-up, then timed passes.

``run.py`` starts this as ``python3 hostbench/lifetime.py <spec.json>`` with a
hermetic environment and reads the lifetime's samples, one JSON object, from
the last line of its standard output.  The engine is built **as a user gets
it** — ``Engine(config=FULL_SPEC)`` with no ``executor_backend`` — unless the
spec names a backend (the ``layers_by_backend`` side table only).
"""

import contextlib
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # Not the script directory: a bare ``trace`` there would shadow the stdlib's.
    sys.path[0] = ROOT

from hostbench import hostspeed, serve, trace, workloads  # noqa: E402

clock = time.perf_counter


def import_engine():
    """Import ``repro`` and insist it is this checkout's ``src/``."""
    import repro

    source = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(repro.__file__).startswith(source):
        raise SystemExit("repro imported from %s, not %s" % (repro.__file__, source))


def run_pass(operations, cache_root, backend, with_metrics, tracer=None):
    """Every operation once, a fresh default engine each; returns the samples."""
    from repro import FULL_SPEC, Engine
    from repro.cache import DiskCodeCache
    from repro.telemetry.metrics import MetricsRegistry

    seconds = []
    observed = []
    kernel_s = []
    begin = clock()
    for index, (name, source) in enumerate(operations):
        if index % 8 == 0:
            # The host's speed is sampled where the work is, all through the pass.
            kernel_s.append(hostspeed.kernel())
        span = contextlib.nullcontext() if tracer is None else tracer.operation_span(name)
        start = clock()
        try:
            kwargs = {}
            cache = None
            if cache_root is not None:
                cache = kwargs["code_cache"] = DiskCodeCache(cache_root)
            if backend is not None:
                kwargs["executor_backend"] = backend
            if with_metrics:
                kwargs["metrics"] = MetricsRegistry()
            with span:
                engine = Engine(config=FULL_SPEC, **kwargs)
                printed = engine.run_source(source)
            seconds.append(clock() - start)
            observed.append(
                [workloads.digest(printed), engine.stats.total_cycles]
                + workloads.engine_counts(engine.stats, cache)
            )
        except Exception as error:  # a guest run that raises is a failed operation
            seconds.append(clock() - start)
            failure = "%s: %s" % (type(error).__name__, error)
            observed.append([failure] + [0] * (len(workloads.OBSERVED) - 1))
    return {
        "wall_s": clock() - begin - sum(kernel_s),
        "op_s": seconds,
        "observed": observed,
        "kernel_s": kernel_s,
    }


def empty(directory):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)


def run_batch(spec):
    """Set up, then passes: as many plain ones as the budget holds, or ``sequence``.

    ``sequence`` (traced runs) names the kind of each pass — ``plain``,
    ``metrics`` (an always-on ``MetricsRegistry`` attached) or ``traced`` — so
    that the passes compared with each other sit next to each other in time.
    """
    workload = spec["workload"]
    from repro.cache import DiskCodeCache
    from repro.engine.runtime_engine import resolve_executor_backend

    operations = workloads.operations_for(workload, spec["seed"], spec.get("limit"))
    names = [name for name, _source in operations]
    backend = spec.get("backend")
    cache_root = None
    if workload != "suites-steady":
        cache_root = os.path.join(spec["scratch"], "cache")
        empty(cache_root)
    tracer = trace.Tracer()

    def one_pass(kind):
        if workload == "pageload-cold":
            empty(cache_root)
        if kind != "traced":
            return run_pass(operations, cache_root, backend, kind == "metrics")
        with tracer.installed(backend):
            return run_pass(operations, cache_root, backend, False, tracer)

    if workload == "pageload-warm":
        one_pass("prefill")
    setup_s = clock() - spec["started"]

    passes = {"plain": [], "metrics": [], "traced": []}
    if spec.get("sequence"):
        for kind in spec["sequence"]:
            passes[kind].append(one_pass(kind))
    else:
        # Another pass starts while half of the longest so far still fits.
        budget = spec["budget_s"] - setup_s
        begin = clock()
        longest = 0.0
        while not passes["plain"] or (
            len(passes["plain"]) < spec["max_passes"] and clock() - begin + longest / 2 <= budget
        ):
            passes["plain"].append(one_pass("plain"))
            longest = max(longest, passes["plain"][-1]["wall_s"])

    traced = None
    if passes["traced"]:
        traced = passes["traced"][-1]
        traced["layers"] = trace.summarize(tracer.spans)
        traced["spans"] = len(tracer.spans)
        traced["counts"] = dict(tracer.counts)
        if cache_root is not None:
            traced["counts"]["cache.bytes_on_disk"] = DiskCodeCache(cache_root).stats()["bytes"]
        trace.write(spec["trace_path"], workload, tracer.spans, traced["counts"])

    reference = passes["plain"][0]["observed"]
    mismatches = [
        "%s pass %d: %s: %r != %r" % (kind, index, name, other, first)
        for kind, samples in passes.items()
        for index, sample in enumerate(samples)
        for name, first, other in zip(names, reference, sample["observed"])
        if first != other
    ]
    failed = sum(
        row[0] != spec["expected"].get(name)
        for sample in passes["plain"]
        for name, row in zip(names, sample["observed"])
    )

    def timings(samples):
        return [{"wall_s": sample["wall_s"], "op_s": sample["op_s"]} for sample in samples]

    return {
        "setup_s": setup_s,
        "operations": names,
        "passes": timings(passes["plain"]),
        "metrics_passes": timings(passes["metrics"]),
        "kernel_s": [seconds for sample in passes["plain"] for seconds in sample["kernel_s"]],
        "observed": reference,
        "traced": traced,
        "mismatches": mismatches,
        "attempted": len(names) * len(passes["plain"]),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": resolve_executor_backend(backend),
    }


def main(argv):
    with open(argv[1]) as handle:
        spec = json.load(handle)
    import_engine()
    if spec.get("reference"):
        operations = workloads.operations_for(spec["workload"], spec["seed"])
        result = {"digests": workloads.reference_digests(operations)}
    elif spec["workload"] == "serve-mixed":
        result = serve.run_lifetime(spec)
    else:
        result = run_batch(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
