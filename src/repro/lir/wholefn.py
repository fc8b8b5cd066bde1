"""Whole-binary codegen: one Python function per compiled binary.

The closure backend (:mod:`repro.lir.closures`) already specializes
each basic block into straight-line Python, but it still pays
Python-level dispatch on every block edge.  This backend removes that
last layer of interpretation: an entire
:class:`~repro.lir.native.NativeCode` binary is lowered to a *single*
exec-generated Python function (docs/CODEGEN.md).  The emitter runs in
stages, one module each, and a plain product passes between them:

1. :mod:`repro.lir.regions` — the region partition, reachability, the
   accounting tables, trampolines, the loop tree and the init reads, as
   one :class:`~repro.lir.regions.Regions` value;
2. :mod:`repro.lir.hostkinds` — the host-type map, a
   :class:`~repro.lir.hostkinds.HostKinds` stepped once per instruction;
3. :mod:`repro.lir.wholeops` (the op templates) and
   :mod:`repro.lir.skeleton` (chain, loop and jump emission), which only
   ask the first two.

This module keeps what surrounds the emitter: :func:`compile_whole`, the
process-wide module memo, the link record and the executor.

The generated module round-trips through the persistent code cache as
a **link record** (:func:`whole_artifact`): the marshalled module code,
its accounting tables, where each bound ``_kN`` came from, and the facts
the emitter read beyond the native stream itself.  A binary thawed with
one is *linked*, not re-emitted (:func:`_link`) — after three checks,
each guarding one thing the stored text baked in:

- the **translation roots** equal the ones asked for now (which regions
  the module contains at all);
- the **emitter digest** — the emitter's files (:data:`_EMITTER_FILES`)
  and the native price list — equals this process's (what text any
  stream maps to; the ``_a += K`` literals and the tables are sums of
  native prices);
- every **shape resolution** the emitter was given — ``(shape ids,
  property) -> slot offset or None`` — resolves the same in the live
  runtime's tree (``.slots[k]`` is baked in, and shape ids number one
  runtime's tree, not the program's).

A failed check, like a blob that is not a module defining ``_w`` over
bound names only, is never an error: the binary takes the ordinary emit
path.  Profiled and chaos translations are never persisted and never
link.  tests/test_whole_link.py holds the property the old per-load
source comparison stood for: a link builds what the emitter would.
"""

import functools
import hashlib
import marshal
import os
import re
from collections import OrderedDict
from types import CodeType

from repro.engine.config import CostModel
from repro.errors import CompilerError
from repro.jsvm.interpreter import MAX_CALL_DEPTH
from repro.jsvm.objects import common_slot_offset
from repro.lir.executor import Bailout, NativeExecutor
from repro.lir.hostcode import (
    BIND_EXTRA,
    BIND_IMMEDIATE,
    BIND_SNAPSHOT,
    CTX_FAULT,
    CTX_RESULT,
    bound_value,
)
from repro.lir.regions import entries, region_labels, translation_roots
from repro.lir.skeleton import (
    _ACC_MASK,
    _ACC_SHIFT,
    CTX_ACC,
    CTX_PC,
    _WholeEmitter,
    whole_namespace,
)

#: Bytes of marshalled module code the process-wide translation memo
#: may retain (:class:`_ModuleCodeMemo`): about three times what a pass
#: over every benchmark suite leaves in it (1.4 MB; 1.0 MB for the 16
#: hostbench pages), so those workloads never evict.
_MODULE_CODE_MEMO_BUDGET = 4 << 20


class _ModuleCodeMemo(object):
    """Source digest → marshalled module code, bounded in bytes.

    The module code object is a pure function of the source text
    (profiled and chaos variants emit different text, so they key
    apart), and host ``compile()`` dominates translation cost, so fresh
    engines re-translating the same binary — benchmark repeats, the
    fuzz variant matrix, every page of a site sharing its library
    functions — hit this instead.  It holds no source and no live code
    object: keys are digests and values marshal blobs, so ``retained``
    is exactly the bytes held, a hit costs one ``marshal.loads``
    (a few percent of the ``compile()`` it replaces) and the code
    objects themselves die with the engine that ran them.  Past
    ``budget`` the least recently used entries go; a module bigger than
    the whole budget is not retained at all.
    """

    def __init__(self, budget):
        self.budget = budget
        self.retained = 0
        self._blobs = OrderedDict()  # source digest -> marshalled module code

    def __len__(self):
        return len(self._blobs)

    def clear(self):
        self._blobs.clear()
        self.retained = 0

    def compiled(self, source, filename):
        """The module code object for ``source``, compiling on a miss."""
        key = hashlib.blake2b(source.encode("utf-8"), digest_size=16).digest()
        blob = self._blobs.get(key)
        if blob is not None:
            self._blobs.move_to_end(key)
            return marshal.loads(blob)
        module_code = compile(source, filename, "exec")
        blob = marshal.dumps(module_code)
        if len(blob) <= self.budget:
            self._blobs[key] = blob
            self.retained += len(blob)
            while self.retained > self.budget:
                _key, dropped = self._blobs.popitem(last=False)
                self.retained -= len(dropped)
        return module_code


#: Process-wide translation memo (see :func:`compile_whole` and
#: docs/CODEGEN.md, "Caching").  The budget is a constant, not an option.
_MODULE_CODE_MEMO = _ModuleCodeMemo(budget=_MODULE_CODE_MEMO_BUDGET)


#: Files whose text decides what :class:`~repro.lir.skeleton._WholeEmitter`
#: emits for a given native stream (relative to the ``repro`` package).
_EMITTER_FILES = (
    "lir/wholefn.py",
    "lir/regions.py",
    "lir/hostkinds.py",
    "lir/wholeops.py",
    "lir/skeleton.py",
    "lir/hostcode.py",
    "lir/native.py",
    "lir/lir_nodes.py",
    "lir/regalloc.py",
    "jsvm/objects.py",
)


@functools.lru_cache(maxsize=None)
def _emitter_digest():
    """A digest of the emitting code, once per process; None if unreadable.

    Covers the bytes of :data:`_EMITTER_FILES` and what the emitted text
    bakes in from outside them: ``MAX_CALL_DEPTH`` and every price
    :func:`~repro.lir.native.static_instruction_cost` reads.  Without the
    source there is nothing to compare, so nothing is persisted and
    nothing links.
    """
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baked = (
        MAX_CALL_DEPTH,
        sorted(CostModel.native_costs.items()),
        CostModel.native_op,
        CostModel.spill_access,
    )
    digest = hashlib.blake2b(repr(baked).encode("utf-8"), digest_size=16)
    try:
        for relative in _EMITTER_FILES:
            with open(os.path.join(package, relative), "rb") as handle:
                digest.update(handle.read())
    except OSError:
        return None
    return digest.digest()


_BOUND_NAME = re.compile(r"_k\d+\Z")


def checked_link_record(native, record):
    """``record`` if it has the shape of a link record of ``native``.

    Raises (any exception: the caller counts a corrupt entry) when a
    binding's name, kind or index, a table's leader or extent, or a root
    does not fit the thawed stream.  Translation is lazy, so without
    this a malformed record would surface inside ``WholeExecutor.run``.
    Shape only: whether the record still *holds* is :func:`_link`'s.
    """
    instructions = native.instructions
    size = len(instructions)
    for name, kind, index in record["bindings"]:
        if kind == BIND_IMMEDIATE:
            fits = -len(native.immediates) <= index < 0
        elif kind == BIND_SNAPSHOT:
            fits = 0 <= index < size and instructions[index].snapshot is not None
        else:
            fits = kind == BIND_EXTRA and 0 <= index < size
        if not fits or not _BOUND_NAME.match(name):
            raise ValueError("binding %r does not fit the stream" % ((name, kind, index),))
    leaders = set(region_labels(native))
    for label, region in record["prefix"]:
        if label not in leaders or not 0 < len(region) <= size - label:
            raise ValueError("table for %r, which is no region" % (label,))
    if not set(record["roots"]) <= set(entries(native)):
        raise ValueError("roots %r are not entries" % (record["roots"],))
    for ids, name, _offset in record["shapes"]:
        if type(ids) is not tuple or type(name) is not str:
            raise ValueError("shape question %r" % ((ids, name),))
    return record


def _link(native, executor, roots, record):
    """Attach ``record``'s stored module to the live executor, or None.

    Links only if what the emission read still reads the same (the
    three checks of the module docstring); then rebuilds the base
    namespace, re-binds each ``_kN`` to the thawed native's own
    snapshot / payload / immediate and executes the module.  None — a
    failed check, or a blob that is not a module defining ``_w`` over
    bound names only — sends the caller down the ordinary emit path.
    """
    if record["roots"] != tuple(roots) or record["emitter"] != _emitter_digest():
        return None
    tree = executor.runtime.shapes
    for ids, name, offset in record["shapes"]:
        if common_slot_offset(tree, ids, name) != offset:
            return None
    namespace = whole_namespace(native, executor)
    for name, kind, index in record["bindings"]:
        namespace[name] = bound_value(native, kind, index)
    try:
        module_code = marshal.loads(record["code"])
        if type(module_code) is not CodeType:
            return None
        exec(module_code, namespace)
        fn = namespace.pop("_w")
        names = fn.__code__.co_names
    except Exception:
        return None
    if any(name.startswith("_k") and name not in namespace for name in names):
        return None
    size = len(native.instructions)
    counts = [0] * size
    sums = [0] * size
    prefix = [None] * size
    for label, region in record["prefix"]:
        counts[label] = len(region)
        sums[label] = region[-1]
        prefix[label] = region
    return fn, counts, sums, prefix


def compile_whole(native, executor, profiled=False, capture=None, roots=None):
    """Translate ``native`` into a single whole-binary function.

    Returns ``(fn, counts, sums, prefix)``: the generated function
    (``fn(ctx, pc)``), and per-region-leader instruction counts, summed
    static cycle costs, and inclusive cycle prefix-sums — the same
    accounting tables the closure backend keeps per block, because the
    region partition *is* the block partition minus blocks that can
    never execute.  Only regions reachable from ``roots`` (default:
    :func:`translation_roots`) are translated; ``prefix[pc]`` is None
    for an entry that was not.

    ``profiled`` selects the variant that bumps the binary's per-leader
    block counters inline (``_bc``), giving the cycle profiler the
    exact per-block execution counts it folds into per-instruction
    counts.  Profiled and chaos-instrumented variants are distinct
    generated code, cached separately, never persisted and never linked.

    A thawed binary's link record (``native.disk_whole``) is *linked*
    when its facts hold (:func:`_link`), and the emitter does not run.
    Otherwise — no record, a refused one, or a caller that wants the
    module text in ``capture``, which only the emitter has — the module
    is emitted and compiled through the process-wide memo.
    """
    if roots is None:
        roots = translation_roots(native, executor)
    record = native.disk_whole
    if (
        record is not None
        and capture is None
        and not profiled
        and executor.fault_injector is None
    ):
        linked = _link(native, executor, roots, record)
        if linked is not None:
            executor.modules_linked += 1
            return linked
    executor.modules_emitted += 1
    emitter = _WholeEmitter(native, executor, roots, profiled=profiled)
    source, counts, sums, prefix = emitter.generate()
    namespace = emitter.namespace
    if profiled:
        namespace["_bc"] = executor.cycle_profiler.native_profile(native).block_counts
    module_code = _MODULE_CODE_MEMO.compiled(
        source, "<whole-backend %s>" % native.code.name
    )
    if capture is not None:
        capture["source"] = source
        capture["module_code"] = module_code
        capture["emitter"] = emitter
    exec(module_code, namespace)
    # Taken out, not read: ``_w`` never names itself, and left in, the
    # module's globals would hold the function whose globals they are.
    return namespace.pop("_w"), counts, sums, prefix


def whole_artifact(native, executor):
    """The persistable link record for ``native``, or None.

    Translates the binary now (installing ``native.whole_cache``) and
    returns what a later process needs to run the same module without
    emitting it, and no source text: the marshalled ``code``; the
    tables as ``prefix`` (translated leaders only; counts and sums are
    its lengths and last entries); ``bindings`` as the binder recorded
    them; and the facts :func:`_link` re-checks.  None for other
    executor types, whenever a fault injector or profiler is armed —
    instrumented code must never reach the persistent cache — when the
    emitting code cannot be read, and when a bound name does not
    resolve back to the very object it was bound to (the translation
    stays; only the record is withheld).
    """
    if not isinstance(executor, WholeExecutor):
        return None
    if executor.fault_injector is not None:
        return None
    if executor.cycle_profiler is not None:
        return None
    emitter_digest = _emitter_digest()
    if emitter_digest is None:
        return None
    capture = {}
    cache = executor._translate(native, capture=capture)
    emitter = capture["emitter"]
    namespace = emitter.namespace
    bindings = emitter.ops.bindings
    for name, kind, index in bindings:
        if bound_value(native, kind, index) is not namespace[name]:
            return None
    return {
        "code": marshal.dumps(capture["module_code"]),
        "prefix": [(label, cache[6][label]) for label in emitter.regions.bodies],
        "bindings": bindings,
        "roots": tuple(emitter.regions.roots),
        "emitter": emitter_digest,
        "shapes": [
            (ids, name, offset) for (ids, name), offset in emitter.ops.shape_answers.items()
        ],
    }


class WholeExecutor(NativeExecutor):
    """The whole-binary backend (``executor_backend="whole"``).

    Runs each binary as one generated Python function; shares guard
    semantics, cycle accounting and the bailout protocol with the other
    backends.  ``EngineStats``, cycle counts, printed output and trace
    streams are bit-identical to both.
    """

    def __init__(self, interpreter):
        super(WholeExecutor, self).__init__(interpreter)
        #: Translations that attached a stored module / ran the emitter
        #: (:func:`compile_whole`).  Host-side bookkeeping for tools and
        #: tests; no ledger reads them, so cold and warm stats agree.
        self.modules_linked = 0
        self.modules_emitted = 0

    def _translate(self, native, roots=None, capture=None):
        """Translate ``native`` for this executor and install the result.

        The installed tuple is everything :meth:`run` needs, derived
        once: ``(executor, injector, profiled, fn, counts, sums, prefix,
        entry_pc, osr_pc)`` — an entry pc is None when the binary has no
        such entry or the translation was rooted elsewhere and left its
        region out.
        """
        profiled = self.cycle_profiler is not None
        fn, counts, sums, prefix = compile_whole(
            native, self, profiled=profiled, capture=capture, roots=roots
        )
        entry_pc = native.entry_index
        if prefix[entry_pc] is None:
            entry_pc = None
        osr_pc = native.osr_index
        if osr_pc is not None and prefix[osr_pc] is None:
            osr_pc = None
        cache = (
            self, self.fault_injector, profiled, fn, counts, sums, prefix, entry_pc, osr_pc
        )
        native.whole_cache = cache
        return cache

    def _entry_pc(self, native, entry):
        """Cold path of :meth:`run`: the installed translation lacks ``entry``.

        A script binary is rooted at its OSR entry only; asked for the
        other one, widen the translation to both entries and go on.
        Returns ``(cache, pc)``.
        """
        if entry == "osr" and native.osr_index is None:
            raise CompilerError("native code for %s has no OSR entry" % native.code.name)
        cache = self._translate(native, roots=entries(native))
        return cache, cache[8] if entry == "osr" else cache[7]

    def run(self, native, function, this_value, args, entry="entry", osr_args=None, osr_locals=None):
        """Execute ``native`` via its whole-binary function."""
        # Profiled and chaos-instrumented translations are distinct
        # generated code, but the injector and profiler are fixed for
        # the executor's lifetime (the Engine wires them up during
        # construction, before any code runs) — so a hit needs only the
        # executor identity check.  The armed injector and profiled
        # flag still ride along in the tuple for the bailout/profiling
        # slow paths and for introspection.
        cache = native.whole_cache
        if cache is None or cache[0] is not self:
            cache = self._translate(native)
        pc = cache[8] if entry == "osr" else cache[7]
        if pc is None:
            cache, pc = self._entry_pc(native, entry)
        ctx = [this_value, args, function, osr_args, osr_locals, None, 0, 0, 0]
        try:
            cache[3](ctx, pc)
        except BaseException as exc:
            self._charge_fault(native, cache, ctx, exc)
            raise
        acc = ctx[CTX_ACC]
        self.cycles += acc >> _ACC_SHIFT
        self.instructions_executed += acc & _ACC_MASK
        if cache[2]:
            self.cycle_profiler.charge_native(acc >> _ACC_SHIFT, acc & _ACC_MASK)
        return ctx[CTX_RESULT]

    def _charge_fault(self, native, cache, ctx, exc):
        """Account a run that ended in ``exc`` (a bailout or a guest error).

        The function published its progress before re-raising: charge
        exactly through the faulting instruction, whose absolute index
        is the region leader plus the offset.
        """
        fault_pc = ctx[CTX_PC]
        fault = ctx[CTX_FAULT]
        acc = ctx[CTX_ACC]
        cycles = (acc >> _ACC_SHIFT) + cache[6][fault_pc][fault]
        executed = (acc & _ACC_MASK) + fault + 1
        self.cycles += cycles
        self.instructions_executed += executed
        if cache[2]:
            profiler = self.cycle_profiler
            instr_counts = profiler.native_profile(native).instr_counts
            for offset in range(fault + 1):
                instr_counts[fault_pc + offset] += 1
            profiler.charge_native(cycles, executed)
        if isinstance(exc, Bailout) and exc.native_index is None:
            exc.native_index = fault_pc + fault
