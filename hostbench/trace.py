"""Outside-in span tracer for the layers under ``src/repro/``.

No file under ``src/`` is edited.  :class:`Tracer` replaces each layer's
public entry point *where the pipeline looks it up* (``repro.engine.jit
.build_mir``, not ``repro.mir.builder.build_mir``) with a wrapper that
records one span per call, and restores every attribute afterwards.

A span is ``[name, start, end, parent, operation]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``operation`` the id of
the guest program run or served request that caused it.  Executor and
interpreter re-enter each other, so per-layer seconds are *self* time: a
span's duration minus the part covered by its child spans.
"""

import contextlib
import importlib
import json
import time

#: Name of the root span the benchmark opens around each operation.  Its
#: self time is what no layer span covers (the unattributed share).
ROOT = "bench.operation"

#: ``(module, class or None, attribute, span name)`` — one row per wrapped
#: entry point.  The module is the one whose namespace the *caller* reads.
TARGETS = (
    ("repro.jsvm.bytecompiler", None, "parse", "jsvm.parse"),
    ("repro.jsvm.bytecompiler", None, "compile_program", "jsvm.bytecompile"),
    ("repro.jsvm.interpreter", "Interpreter", "execute", "jsvm.interp"),
    ("repro.engine.runtime_engine", None, "rotate_loops", "opts.loop_inversion"),
    ("repro.engine.jit", None, "build_mir", "mir.build"),
    ("repro.opts.pass_manager", None, "specialize_types", "mir.specialize_types"),
    ("repro.engine.jit", None, "optimize", "opts.optimize"),
    ("repro.opts.pass_manager", None, "run_inlining", "opts.inlining"),
    ("repro.opts.pass_manager", None, "run_gvn", "opts.gvn"),
    ("repro.opts.pass_manager", None, "run_constant_propagation", "opts.constprop"),
    ("repro.opts.pass_manager", None, "run_dce", "opts.dce"),
    ("repro.opts.pass_manager", None, "run_licm", "opts.licm"),
    (
        "repro.opts.pass_manager",
        None,
        "run_bounds_check_elimination",
        "opts.bounds_check",
    ),
    # generate_native's self time is assembly: lowering and register
    # allocation are its child spans.
    ("repro.engine.jit", None, "generate_native", "lir.assemble"),
    ("repro.lir.native", None, "lower_graph", "lir.lower"),
    ("repro.lir.native", None, "allocate_registers", "lir.regalloc"),
    ("repro.lir.closures", None, "compile_closures", "lir.hostgen"),
    ("repro.lir.wholefn", None, "compile_whole", "lir.hostgen"),
    ("repro.engine.runtime_engine", "Engine", "__init__", "engine.init"),
    ("repro.engine.runtime_engine", "Engine", "try_native_call", "engine.policy"),
    ("repro.engine.runtime_engine", "Engine", "on_backedge", "engine.policy"),
    ("repro.cache.disk", "DiskCodeCache", "key_for", "cache.key"),
    ("repro.cache.disk", "DiskCodeCache", "load", "cache.load"),
    ("repro.cache.disk", "DiskCodeCache", "store", "cache.store"),
    # The serving tier's per-tenant view keys without going through
    # DiskCodeCache.key_for; its load/store delegate to the rows above.
    ("repro.serving.shards", "TenantCacheView", "key_for", "cache.key"),
)

#: Spans whose self time is compile-pipeline work (``engine.compile_share``).
COMPILE_STAGES = (
    "mir.build",
    "mir.specialize_types",
    "opts.optimize",
    "opts.inlining",
    "opts.gvn",
    "opts.constprop",
    "opts.dce",
    "opts.licm",
    "opts.bounds_check",
    "lir.assemble",
    "lir.lower",
    "lir.regalloc",
    "lir.hostgen",
)


def _count_build(counts, args, result):
    counts["mir.instructions_in"] += result.num_instructions()


def _count_optimize(counts, args, result):
    counts["opts.instructions_out"] += args[0].num_instructions()
    counts["opts.work_units"] += result.total_units


def _count_native(counts, args, result):
    native, stats = result
    counts["lir.native_instructions_emitted"] += len(native.instructions)
    counts["lir.spills"] += stats["spills"]


def _count_parse(counts, args, result):
    counts["jsvm.source_bytes"] += len(args[0].encode("utf-8"))


#: Work counted at the same boundary as the span, from the call's own
#: arguments and result (span name -> hook).
COUNTERS = {
    "mir.build": _count_build,
    "opts.optimize": _count_optimize,
    "lir.assemble": _count_native,
    "jsvm.parse": _count_parse,
}

COUNT_NAMES = (
    "mir.instructions_in",
    "opts.instructions_out",
    "opts.work_units",
    "lir.native_instructions_emitted",
    "lir.spills",
    "jsvm.source_bytes",
)


def executor_target(backend=None):
    """The ``.run`` row for the executor class a default engine instantiates."""
    from repro.engine import runtime_engine

    name = runtime_engine.resolve_executor_backend(backend)
    cls = runtime_engine.EXECUTOR_BACKENDS[name]
    return (cls.__module__, cls.__name__, "run", "lir.exec")


class Tracer(object):
    """Records spans from wrappers installed around :data:`TARGETS`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.current = -1
        self.operation = None

    def _wrap(self, function, name):
        spans = self.spans
        clock = self.clock
        counter = COUNTERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            parent = self.current
            index = len(spans)
            # Reserve the slot now so a parent always precedes its children.
            spans.append(None)
            self.current = index
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                spans[index] = [name, start, clock(), parent, self.operation]
                self.current = parent
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def installed(self, backend=None):
        """Wrap every target; restore each attribute on exit, error or not."""
        patched = []
        try:
            for module_name, class_name, attribute, name in TARGETS + (
                executor_target(backend),
            ):
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = vars(owner)[attribute]
                setattr(owner, attribute, self._wrap(original, name))
                patched.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(patched):
                setattr(owner, attribute, original)

    @contextlib.contextmanager
    def operation_span(self, operation):
        """The root span of one operation (a program run or a request)."""
        self.operation = operation
        index = len(self.spans)
        self.spans.append(None)
        self.current = index
        start = self.clock()
        try:
            yield
        finally:
            self.spans[index] = [ROOT, start, self.clock(), -1, operation]
            self.current = -1
            self.operation = None


def self_times(spans):
    """Self seconds of every span, in span order."""
    own = [end - start for _name, start, end, _parent, _op in spans]
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans):
    """``{name: {"self_s", "total_s", "spans"}}`` over all spans."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"self_s": 0.0, "total_s": 0.0, "spans": 0})
        row["self_s"] += own
        row["total_s"] += span[2] - span[1]
        row["spans"] += 1
    return table


def write(path, workload, spans, counts):
    """Dump the spans of one traced pass (times relative to the first)."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": workload,
                "fields": ["name", "start_s", "end_s", "parent", "operation"],
                "counts": counts,
                "spans": [
                    [name, start - origin, end - origin, parent, operation]
                    for name, start, end, parent, operation in spans
                ],
            },
            handle,
        )
        handle.write("\n")
