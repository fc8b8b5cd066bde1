"""Whole-binary codegen: one Python function per compiled binary.

The closure backend (:mod:`repro.lir.closures`) already specializes
each basic block into straight-line Python, but it still pays
Python-level dispatch on every block edge: a driver-loop iteration, a
function call, a return, and three list indexings per block executed.
This module removes that last layer of interpretation.  An entire
:class:`~repro.lir.native.NativeCode` binary is lowered to a *single*
exec-generated Python function:

- **Basic blocks become labeled regions** inside one dispatch-free
  control-flow skeleton.  Natural loops are rebuilt as *nested Python
  ``while`` statements*: every back edge ``continue``s the innermost
  generated loop, so a hot loop header costs a single integer compare
  per iteration instead of a rescan of the whole region chain.  Within
  a loop (and at the top level) regions form an ordered chain of
  ``if _pc == <leader>:`` arms — a forward branch assigns ``_pc`` and
  falls down the chain; leaving a loop falls out of its ``while``
  through a range check.  Straight-line runs that merely *flow into* a
  jump target fall through with a single assignment — no call, no
  driver.  The nesting is a pure optimization: any jump the structure
  does not anticipate cascades out through the range checks and is
  re-dispatched, so irreducible control flow stays correct.

- **Register slots become local variables** (``_r0..`` for the eight
  registers, ``_s0..`` for spill slots — the same physical locations
  :mod:`repro.lir.regalloc` assigned), so operand access compiles to
  ``LOAD_FAST`` instead of a list index.  Immediate-pool operands are
  inlined as source literals, exactly like x86 instruction immediates.

- **Guards compile to inline ``if`` checks** raising the existing
  bailout protocol.  The frame-reconstruction values a snapshot needs
  are spelled out at codegen time as an explicit tuple of locals (and
  literals for immediates), so a bailout never consults a value array
  that no longer exists.

- **Shape-guarded property access compiles to constant-offset slot
  access** — ``obj.slots[2]`` — whenever a dominating ``guardshape``
  proves a single layout offset (:func:`repro.jsvm.objects.common_slot_offset`),
  sharing the tracker with the closure backend.

Cycle and instruction accounting is *region*-granular: the generated
function accumulates the region's precomputed instruction count and
summed static cost in two locals at every region exit, publishing them
through the ``ctx`` list on return.  Exactness under faults is kept by
the same progress-marker scheme the closure backend uses, but cheaper:
``_i`` is re-stamped only before instructions that can actually raise
(guards, heap access, calls), so pure arithmetic runs marker-free.  On
any exception the function publishes ``(_pc, _i, _a)`` and the
driver charges exactly through the faulting instruction — the same
cycles, the same ``Bailout.native_index``, bit-identical to both other
backends (the differential suites prove stats, cycles, output and
trace streams match on every suite benchmark).

The generated module round-trips through the persistent code cache as
a **link record** (:func:`whole_artifact`): the marshalled module code,
its accounting tables, where each bound ``_kN`` came from, and the facts
the emitter read beyond the native stream itself.  A binary thawed with
one is *linked*, not re-emitted (:func:`_link`) — after four checks,
each guarding one thing the stored text baked in:

- the **translation roots** equal the ones asked for now (which regions
  the module contains at all);
- the **emitter digest** — this file and the five it reads constants and
  helpers from — equals this process's (what text any stream maps to);
- the **price digest** of the cost model equals the executor's (the
  ``_a += K`` literals and the tables are sums of native prices);
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

from repro.errors import CompilerError
from repro.jsvm import operations
from repro.jsvm.bytecode import Op
from repro.jsvm.interpreter import MAX_CALL_DEPTH
from repro.jsvm.objects import JSArray, JSObject, common_slot_offset
from repro.jsvm.values import (
    UNDEFINED,
    JSFunction,
    NativeFunction,
    normalize_number,
    to_boolean,
    type_of,
)
from repro.lir.closures import (
    BIND_EXTRA,
    BIND_IMMEDIATE,
    BIND_SNAPSHOT,
    _COMPARE_PY,
    _Binder,
    _ShapeGuardTracker,
    _TERMINATORS,
    bound_value,
    CTX_OSR_ARGS,
    CTX_OSR_LOCALS,
    CTX_RESULT,
    CTX_FAULT,
)
from repro.lir.executor import (
    Bailout,
    NativeExecutor,
    _compare,
    _matches,
    forced_recovery_value,
)
from repro.lir.native import FAULT_INJECTED, GUARD_OPS, native_price_digest
from repro.lir.regalloc import NUM_REGS
from repro.mir.types import MIRType

#: Extra ``ctx`` slots beyond the closure backend's seven: the packed
#: cycle/instruction accumulator and the faulting region's leader pc.
#: The whole function has no per-block driver, so these are the only
#: channel from generated code back to the executor.
CTX_ACC = 7
CTX_PC = 8

#: Region accounting is packed into ONE accumulator: every region exit
#: executes a single ``_a += K`` with the precomputed literal
#: ``K = (static_cycles << _ACC_SHIFT) | instruction_count``.  Python
#: ints are unbounded so the high field cannot overflow, and the low
#: field cannot carry into it before ~2**64 executed instructions —
#: far beyond any run.  The executor splits the two fields at the end.
_ACC_SHIFT = 64
_ACC_MASK = (1 << _ACC_SHIFT) - 1

#: Ops whose generated statements can raise *outside the generated
#: code's own control* — guest errors out of calls and runtime helpers
#: — on their hot path.  Only these need a hot-path ``_i`` progress
#: marker.  Guards raise too, but only through their own explicit
#: ``_bw``/``_fw`` cold branch, so their marker is emitted *inside*
#: that branch and the speculation-holds path runs marker-free; the
#: generic ops with an inline arm (``binary_v``, ``unary_v``,
#: ``getelem_v``, ``setelem_v``, ``loadglobal``) do the same for the
#: arm that calls their helper (:meth:`_WholeEmitter._arms`).
#: Everything else (moves, checked arithmetic whose guard passed,
#: bounds-checked heap access, comparisons, allocation, a global
#: store) is total by construction.
_HELPER_RAISES = frozenset(
    ["osrvalue", "getprop_v", "setprop_v", "call", "new"]
)


#: Int32-closed bitwise operators inlined as host operators (see the
#: ``bitop_i`` emission for the shift family, which needs masking).
_BITOP_PY = {Op.BITAND: "&", Op.BITOR: "|", Op.BITXOR: "^"}

#: Generic ``binary_v`` operators with an inlineable both-numbers fast
#: path.  ADD/SUB normalize like the typed double ops; the relational
#: and equality operators map onto the host operator directly (for two
#: numbers ``js_compare``/``js_equals``/``js_strict_equals`` all reduce
#: to an exact host comparison, NaN included).  MUL is excluded: its
#: int×int negative-zero rule needs the helper.
_GENERIC_NUMERIC_PY = {
    Op.ADD: "+",
    Op.SUB: "-",
    Op.LT: "<",
    Op.LE: "<=",
    Op.GT: ">",
    Op.GE: ">=",
    Op.EQ: "==",
    Op.NE: "!=",
    Op.STRICTEQ: "==",
    Op.STRICTNE: "!=",
}

# -- the host-type map (docs/CODEGEN.md, "The host-type map") ------------------
#
# What the emitter can prove, at translation time, about the *Python*
# value a location holds.  ``number`` is the join of ``int`` and
# ``float``; ``other`` is a literal of none of these kinds (undefined,
# null); absent means unknown.  A Python ``int`` in a location is an
# int32: every producer normalizes.
_INT = "int"
_FLOAT = "float"
_NUMBER = "number"
_BOOL = "bool"
_STR = "str"
_ARRAY = "array"
_OBJECT = "object"
_FUNCTION = "function"
_OTHER = "other"
_NUMERIC = frozenset([_INT, _FLOAT, _NUMBER])

#: The kind a value has once it passed an ``unbox``/``typebarrier`` of
#: this type (``DOUBLE`` depends on the op and is handled there).
_KIND_OF_MIRTYPE = {
    MIRType.INT32: _INT,
    MIRType.BOOLEAN: _BOOL,
    MIRType.STRING: _STR,
    MIRType.ARRAY: _ARRAY,
    MIRType.OBJECT: _OBJECT,
    MIRType.FUNCTION: _FUNCTION,
}

#: Ops whose result kind is fixed by the op alone.
_RESULT_KIND = {
    "add_i": _INT,
    "sub_i": _INT,
    "mul_i": _INT,
    "neg_i": _INT,
    "toint32": _INT,
    "arraylength": _INT,
    "stringlength": _INT,
    "compare": _BOOL,
    "not": _BOOL,
    "add_d": _NUMBER,
    "sub_d": _NUMBER,
    "mul_d": _NUMBER,
    "div_d": _NUMBER,
    "mod_d": _NUMBER,
    "neg_d": _NUMBER,
    "todouble": _FLOAT,
    "concat": _STR,
    "typeof": _STR,
    "newarray": _ARRAY,
    "newobject": _OBJECT,
    "lambda": _FUNCTION,
}

#: Result kind of a generic ``binary_v``/``unary_v`` by operator — what
#: ``operations`` returns whatever the operands were (``+`` may
#: concatenate and is decided from its operands).
_GENERIC_RESULT_KIND = {
    Op.SUB: _NUMBER,
    Op.MUL: _NUMBER,
    Op.DIV: _NUMBER,
    Op.MOD: _NUMBER,
    Op.BITAND: _INT,
    Op.BITOR: _INT,
    Op.BITXOR: _INT,
    Op.SHL: _INT,
    Op.SHR: _INT,
    Op.USHR: _NUMBER,
    Op.EQ: _BOOL,
    Op.NE: _BOOL,
    Op.STRICTEQ: _BOOL,
    Op.STRICTNE: _BOOL,
    Op.LT: _BOOL,
    Op.LE: _BOOL,
    Op.GT: _BOOL,
    Op.GE: _BOOL,
    Op.IN: _BOOL,
    Op.NEG: _NUMBER,
    Op.POS: _NUMBER,
    Op.TONUM: _NUMBER,
    Op.BITNOT: _INT,
    Op.NOT: _BOOL,
    Op.TYPEOF: _STR,
}


#: ``normalize_number(_t)`` in line, for an int ``_t`` and for a float one
#: (:meth:`_WholeEmitter._normalized`).
_NORMALIZED_INT = "_t if -2147483648 <= _t <= 2147483647 else float(_t)"
_NORMALIZED_FLOAT = (
    "_t if _t % 1 else int(_t) if _t and -2147483648.0 <= _t <= 2147483647.0 "
    "else _normalize(_t)"
)


def _literal_kind(value):
    """The kind of an immediate: its value is known exactly."""
    kind = type(value)
    if kind is int:
        return _INT if -2147483648 <= value <= 2147483647 else None
    if kind is float:
        return _FLOAT
    if kind is bool:
        return _BOOL
    if kind is str:
        return _STR
    if isinstance(value, JSArray):
        return _ARRAY
    if isinstance(value, JSObject):
        return _OBJECT
    if isinstance(value, (JSFunction, NativeFunction)):
        return _FUNCTION
    return _OTHER


#: Longest run of chain items emitted linearly before switching to a
#: binary dispatch tree (see :meth:`_WholeEmitter._emit_items`).
_LINEAR_LIMIT = 8

#: Deepest ``while`` nesting the loop tree may materialize.  CPython's
#: compiler refuses functions with more than 20 statically nested
#: blocks (``CO_MAXBLOCKS``), and the generated function already
#: spends two on its ``try`` and redispatch loop.  Loops past the cap
#: are emitted as flat region arms: their back edges ``continue`` the
#: nearest materialized enclosing loop and re-dispatch from there —
#: the nesting is a pure optimization, so only speed is lost.
_MAX_LOOP_DEPTH = 14

#: Bytes of marshalled module code the process-wide translation memo
#: may retain (:class:`_ModuleCodeMemo`): about three times what a pass
#: over every benchmark suite leaves in it (1.4 MB; 1.0 MB for the 16
#: hostbench pages), so those workloads never evict.
_MODULE_CODE_MEMO_BUDGET = 4 << 20


def publish_bailout(snapshot, vals, reason, op, actual=None):
    """Raise the :class:`Bailout` for a guard with pre-read values.

    The whole-function backend keeps values in Python locals, so the
    generated guard passes the snapshot's reconstruction values as an
    explicit tuple (in ``snapshot.locations`` order) instead of handing
    over a value array.  Frame slicing matches
    :meth:`NativeExecutor._bail` exactly.
    """
    num_args = snapshot.num_args
    num_locals = snapshot.num_locals
    args = list(vals[:num_args])
    locals_ = list(vals[num_args : num_args + num_locals])
    stack = list(vals[num_args + num_locals :])
    if snapshot.mode == "after":
        stack.append(actual)
    raise Bailout(
        snapshot, args, locals_, stack, snapshot.pc, snapshot.mode, reason, op, actual
    )


def _region_labels(native):
    """Leaders that start an addressable region: the entry, the OSR
    entry, and every jump target.  This is the closure backend's block
    partition minus its post-terminator leaders (a block that follows a
    terminator and is not a jump target can never execute), so region
    bodies — and the per-region accounting tables — coincide with the
    per-block ones.  It is a *partition*, not a reachability claim: a
    jump target may itself sit in dead code; :func:`_reachable_labels`
    picks the regions that are actually translated.
    """
    labels = {native.entry_index}
    if native.osr_index is not None:
        labels.add(native.osr_index)
    for instruction in native.instructions:
        if instruction.targets is not None:
            labels.update(instruction.targets)
    return sorted(
        label for label in labels if 0 <= label < len(native.instructions)
    )


def _entries(native):
    """Both entry points of ``native`` (the OSR one only if present)."""
    if native.osr_index is None:
        return (native.entry_index,)
    return (native.entry_index, native.osr_index)


def translation_roots(native, executor):
    """Entry points the translation of ``native`` is rooted at.

    Only regions reachable from a root are translated.  A script's code
    object is run once by ``Interpreter.run_code`` and never reaches
    ``Engine.try_native_call``, so its binary — compiled at a loop back
    edge — is only ever entered at the OSR entry, and everything
    reachable from ``entry_index`` alone (the script's whole
    straight-line prologue) is dead.  Function binaries keep both
    entries; so does any chaos-instrumented translation, whose injector
    addresses instructions by index and whose harness replays call
    entries (``exercise_entry_guards``).

    The store path (:func:`whole_artifact`) and the run path
    (:meth:`WholeExecutor.run`) both get their roots here, so the
    module persisted at store time is rooted where a warm load asks
    (a link record names its roots; other roots refuse it).
    """
    if (
        native.code.is_script
        and native.osr_index is not None
        and executor.fault_injector is None
    ):
        return (native.osr_index,)
    return _entries(native)


def _region_successors(instructions, body, labels):
    """Labels control can reach from the region ``body``: its
    terminator's targets, or the label it falls through into."""
    last = instructions[body[-1]]
    if last.op in _TERMINATORS:
        return last.targets or ()
    fall = body[-1] + 1
    return (fall,) if fall in labels else ()


def _reachable_labels(instructions, bodies, roots):
    """The labels of ``bodies`` reachable from ``roots``, sorted."""
    seen = set(roots)
    work = list(roots)
    while work:
        for target in _region_successors(instructions, bodies[work.pop()], bodies):
            if target in bodies and target not in seen:
                seen.add(target)
                work.append(target)
    return sorted(seen)


def _base_namespace(executor):
    """The names every generated module resolves through its globals.

    Bound afresh per translation — emitted or linked — to this
    executor's interpreter and runtime; the ``_kN`` constants of one
    binary are numbered on from ``len()`` of it (:class:`_Binder`).
    """
    interpreter = executor.interpreter
    runtime = executor.runtime
    return {
        "_UNDEF": UNDEFINED,
        "_bw": publish_bailout,
        "_interp": interpreter,
        "_runtime": runtime,
        "_root": runtime.shapes.root,
        "_normalize": normalize_number,
        "_js_div": operations.js_div,
        "_js_mod": operations.js_mod,
        "_binary": operations.binary_op,
        "_unary": operations.unary_op,
        "_to_int32": operations.to_int32,
        "_to_boolean": to_boolean,
        "_type_of": type_of,
        "_cmp": _compare,
        "_matches": _matches,
        "_get_element": operations.get_element,
        "_set_element": operations.set_element,
        "_get_property": interpreter.get_property,
        "_set_property": operations.set_property,
        "_get_global": runtime.get_global,
        "_G": runtime.globals,
        "_call_value": interpreter.call_value,
        "_call_function": interpreter.call_function,
        "_construct": interpreter.construct,
        "_JSArray": JSArray,
        "_JSObject": JSObject,
        "_JSFunction": JSFunction,
        "_FUNCS": (JSFunction, NativeFunction),
        "_badpc": _bad_pc,
    }


class _WholeEmitter(object):
    """Generates the single-function module for one binary."""

    def __init__(self, native, executor, roots, profiled=False):
        self.native = native
        self.executor = executor
        self.roots = roots
        self.profiled = profiled
        self.inject = executor.fault_injector is not None
        self.namespace = _base_namespace(executor)
        if self.inject:
            injector = executor.fault_injector
            instructions = native.instructions

            def _fire(index, _injector=injector, _native=native):
                return _injector.should_fire(_native, index)

            def _fw(index, srcvals, snapvals, _instructions=instructions):
                instruction = _instructions[index]
                actual = forced_recovery_value(
                    instruction.op, instruction.extra, srcvals
                )
                publish_bailout(
                    instruction.snapshot, snapvals, FAULT_INJECTED, instruction.op, actual
                )

            self.namespace["_fire"] = _fire
            self.namespace["_fw"] = _fw
        #: What a link record keeps of this emission beside the code:
        #: where each ``_kN`` came from, and what the shape tree said.
        self.bindings = []
        self.shape_answers = {}
        self.binder = _Binder(self.namespace, self.bindings)
        # Per-region emission state.
        self.cur_index = 0
        self.cur_offset = 0
        self.args_in_t = False
        self.known_i = None
        #: The host-type map: location -> kind, for what the region
        #: emitted so far proves (see :meth:`kind`).
        self.kinds = {}

    # -- operand text --------------------------------------------------------

    def val(self, loc):
        """Source text reading physical location ``loc``."""
        if loc < 0:
            return self.binder.lit(self.native.immediates[loc], BIND_IMMEDIATE, loc)
        if loc < NUM_REGS:
            return "_r%d" % loc
        return "_s%d" % (loc - NUM_REGS)

    def snap_vals(self, snapshot):
        """Tuple-display text of the snapshot's located values."""
        parts = "".join(self.val(loc) + ", " for loc in snapshot.locations)
        return "(%s)" % parts

    def src_vals(self, instruction):
        """Tuple-display text of the instruction's source values."""
        parts = "".join(self.val(loc) + ", " for loc in instruction.srcs)
        return "(%s)" % parts

    # -- instruction emission ------------------------------------------------

    def emit_instruction(self, out, index, offset, instruction, slot_offset):
        """Append statements for one instruction of a region body.

        ``offset`` is the in-region offset used for the progress
        marker.  Hot-path markers are emitted lazily, and only before
        instructions that can raise out of a runtime helper
        (``_HELPER_RAISES``); guards stamp their marker inside their
        own cold bail branch instead (:meth:`_bail`), so passing
        speculation costs nothing.
        """
        self.cur_index = index
        self.cur_offset = offset
        if instruction.op != "getarg":
            self.args_in_t = False
        if instruction.op in _HELPER_RAISES:
            self._mark(out)
        if (
            self.inject
            and instruction.snapshot is not None
            and instruction.op in GUARD_OPS
        ):
            out.append("if _fire(%d):" % index)
            if self.known_i != offset:
                out.append(" _i = %d" % offset)
            out.append(
                " _fw(%d, %s, %s)"
                % (
                    index,
                    self.src_vals(instruction),
                    self.snap_vals(instruction.snapshot),
                )
            )
        result = self._result_kind(instruction)
        self._emit_op(out, instruction, slot_offset)
        self._record_kind(instruction, result)

    # -- the host-type map ---------------------------------------------------------

    def kind(self, loc):
        """What this translation knows of the Python value in ``loc``.

        One of the kind constants, or None for "anything".  Immediates
        are known exactly; a register or slot is known by what the
        region emitted so far did to it.  A chaos-instrumented
        translation knows nothing: it must contain every guard and
        every test, because the injector addresses them by index.
        """
        if self.inject:
            return None
        if loc < 0:
            return _literal_kind(self.native.immediates[loc])
        return self.kinds.get(loc)

    def _passes(self, loc, expected):
        """Whether the value in ``loc`` is known to pass an
        ``unbox``/``typebarrier`` of MIR type ``expected``."""
        kind = self.kind(loc)
        if expected == MIRType.VALUE:
            return True
        if expected == MIRType.DOUBLE:
            return kind in _NUMERIC
        return kind is not None and kind == _KIND_OF_MIRTYPE.get(expected)

    def _record_kind(self, instruction, result):
        """Update the map for ``instruction`` having executed; ``result``
        is its :meth:`_result_kind`, taken before the map moves."""
        kinds = self.kinds
        if instruction.op in ("unbox", "typebarrier") and instruction.srcs[0] >= 0:
            # The value still sitting in the source passed the check too.
            checked = self._checked_kind(instruction)
            if checked is not None:
                kinds[instruction.srcs[0]] = checked
        dest = instruction.dest
        if dest is not None and dest >= 0:
            if result is None:
                kinds.pop(dest, None)
            else:
                kinds[dest] = result

    def _checked_kind(self, instruction):
        """Kind of a value that passed this ``unbox``/``typebarrier``."""
        expected = instruction.extra
        before = self.kind(instruction.srcs[0])
        if expected == MIRType.VALUE:
            return before
        if expected == MIRType.DOUBLE:
            return before if before in _NUMERIC else _NUMBER
        return _KIND_OF_MIRTYPE.get(expected)

    def _result_kind(self, instruction):
        """Kind of ``instruction``'s result, from its operands' kinds now."""
        op = instruction.op
        kind = _RESULT_KIND.get(op)
        if kind is not None:
            return kind
        if op == "move":
            return self.kind(instruction.srcs[0])
        if op == "const":
            return _literal_kind(instruction.extra)
        if op == "unbox" and instruction.extra == MIRType.DOUBLE:
            return _FLOAT
        if op == "unbox" or op == "typebarrier":
            return self._checked_kind(instruction)
        if op == "bitop_i":
            if instruction.extra == Op.USHR and instruction.snapshot is None:
                return _NUMBER
            return _INT
        if op == "binary_v":
            if instruction.extra == Op.ADD:
                a, b = instruction.srcs
                if self.kind(a) in _NUMERIC and self.kind(b) in _NUMERIC:
                    return _NUMBER
                return None
            return _GENERIC_RESULT_KIND.get(instruction.extra)
        if op == "unary_v":
            if instruction.extra in (Op.POS, Op.TONUM) and self.kind(instruction.srcs[0]) == _INT:
                return _INT
            return _GENERIC_RESULT_KIND.get(instruction.extra)
        return None

    def _number_test(self, out, locs):
        """Run-time test that every ``locs`` holds a number.

        Returns the condition text — empty when it is known now — after
        appending the ``type()`` reads it needs, or None when some
        operand is known *not* to be a number (the helper arm alone).
        """
        unknown = []
        for loc in locs:
            kind = self.kind(loc)
            if kind in _NUMERIC:
                continue
            if kind is not None:
                return None
            unknown.append(loc)
        clauses = []
        for name, loc in zip(("_t", "_x"), unknown):
            out.append("%s = type(%s)" % (name, self.val(loc)))
            clauses.append("%s is int or %s is float" % (name, name))
        if len(clauses) == 2:
            return "(%s) and (%s)" % tuple(clauses)
        return "".join(clauses)

    def _int_test(self, locs):
        """Like :meth:`_number_test`, for "every ``locs`` holds an int"."""
        clauses = []
        for loc in locs:
            kind = self.kind(loc)
            if kind == _INT:
                continue
            if kind is not None and kind != _NUMBER:
                return None
            clauses.append("type(%s) is int" % self.val(loc))
        return " and ".join(clauses)

    def _mark(self, out):
        """Stamp the progress marker on the hot path, once per offset."""
        if self.known_i != self.cur_offset:
            out.append("_i = %d" % self.cur_offset)
            self.known_i = self.cur_offset

    def _cold_mark(self, out):
        """Stamp the progress marker inside a cold arm (one level in):
        the hot path stays marker-free and learns nothing from it."""
        if self.known_i != self.cur_offset:
            out.append(" _i = %d" % self.cur_offset)

    def _arms(self, out, test, inline, helper, raises=True):
        """Append ``inline`` under ``test`` with ``helper`` as the else.

        ``test`` is what :meth:`_number_test`/:meth:`_int_test` return:
        empty emits the inline lines alone, None the helper alone.  The
        inline lines cannot raise; when the helper can (``raises``) the
        progress marker is stamped in its own arm, like a guard's.
        """
        if test is None:
            if raises:
                self._mark(out)
            out.append(helper)
        elif not test:
            out.extend(inline)
        else:
            out.append("if %s:" % test)
            out.extend(" " + line for line in inline)
            out.append("else:")
            if raises:
                self._cold_mark(out)
            out.append(" " + helper)

    @staticmethod
    def _int_operator(op, a, b, dest):
        """Lines storing the int32 operator ``op`` of two ints in ``dest``.

        Every operator but ``>>>`` closes over int32 (so ``bitop_i``'s
        "uint32 overflow" guard can only fire for ``>>>``); an unguarded
        ``>>>`` widens a result past int32 to the double.
        """
        if op == Op.SHL:
            return [
                "_t = (%s << (%s & 31)) & 4294967295" % (a, b),
                "%s = _t - 4294967296 if _t >= 2147483648 else _t" % dest,
            ]
        if op == Op.SHR:
            return ["%s = %s >> (%s & 31)" % (dest, a, b)]
        if op == Op.USHR:
            return [
                "_t = (%s & 4294967295) >> (%s & 31)" % (a, b),
                "%s = float(_t) if _t > 2147483647 else _t" % dest,
            ]
        if op in _BITOP_PY:
            return ["%s = %s %s %s" % (dest, a, _BITOP_PY[op], b)]
        raise CompilerError("whole backend: unknown bitop %r" % (op,))

    def _literal(self, loc):
        """The immediate ``loc`` names, or None for a register or slot
        (and always for a chaos translation, which folds nothing)."""
        if loc < 0 and not self.inject:
            return self.native.immediates[loc]
        return None

    def _literal_int(self, loc):
        """The value of an int immediate, else None."""
        value = self._literal(loc)
        return value if type(value) is int else None

    def _dense_index_test(self, array, index):
        """Test for the dense-array arm of ``getelem_v``/``setelem_v``:
        an exact ``JSArray`` and an int index inside its elements."""
        a, b = self.val(array), self.val(index)
        literal = self._literal_int(index)
        kind = self.kind(index)
        if literal is not None:
            if literal < 0:
                return None
            return "type(%s) is _JSArray and %d < len(%s.elements)" % (a, literal, a)
        if kind == _INT:
            return "type(%s) is _JSArray and 0 <= %s < len(%s.elements)" % (a, b, a)
        if kind is not None and kind != _NUMBER:
            return None
        return "type(%s) is _JSArray and type(%s) is int and 0 <= %s < len(%s.elements)" % (
            a, b, b, a
        )

    def _emit_div(self, out, dest, srcs, test, helper, raises=True):
        """``a / b`` for two numbers (``test`` says what is left to check
        of that): the host quotient when ``b`` is not a zero — both
        round the exact quotient to the nearest double — else the helper
        (``js_div``: the sign of an infinity, NaN for 0/0)."""
        a, b = self.val(srcs[0]), self.val(srcs[1])
        if test is not None:
            divisor = self._literal(srcs[1])
            if divisor is None:
                test = "(%s) and %s" % (test, b) if test else b
            elif divisor == 0:
                test = None
        inline = ["_t = %s / %s" % (a, b), "%s = %s" % (dest, _NORMALIZED_FLOAT)]
        self._arms(out, test, inline, helper, raises)

    def _emit_mod(self, out, dest, srcs, test, helper, raises=True):
        """``a % b`` for two numbers (``test``: what is left to check of
        that).  For a positive ``a`` and ``b`` the host operator is
        ``fmod`` — they differ in sign conventions only — NaN operands
        fail the comparison and infinite ones agree; zeros (the sign of
        a zero result, NaN for ``% 0``) and negatives are the helper's,
        except an int ``a`` of 0, which has no sign to lose."""
        if test is not None:
            clauses = ["(%s)" % test] if test else []
            bounds = (">=" if self.kind(srcs[0]) == _INT else ">", ">")
            for loc, bound in zip(srcs, bounds):
                value = self._literal(loc)
                if value is None:
                    clauses.append("%s %s 0" % (self.val(loc), bound))
                elif not (value > 0 or (bound == ">=" and value == 0)):
                    clauses = None
                    break
            test = None if clauses is None else " and ".join(clauses)
        inline = [
            "_t = %s %% %s" % (self.val(srcs[0]), self.val(srcs[1])),
            self._normalized(dest, srcs),
        ]
        self._arms(out, test, inline, helper, raises)

    def _normalized(self, dest, srcs):
        """The line storing ``normalize_number(_t)`` for ``_t = a ∘ b``.

        An int result stays in line (in range: itself; beyond: the
        double); a float with a fractional part, a NaN or an infinity
        is what ``normalize_number`` returns unchanged, and ``_t % 1``
        is truthy for exactly those; a non-zero integral float in int32
        range is its ``int``; what is left for the helper is a zero
        (whose sign it keeps) and an integral float beyond int32.
        """
        kinds = [self.kind(loc) for loc in srcs]
        if kinds == [_INT, _INT]:
            return "%s = %s" % (dest, _NORMALIZED_INT)
        if _FLOAT in kinds:
            return "%s = %s" % (dest, _NORMALIZED_FLOAT)
        return "%s = (%s) if type(_t) is int else _t if _t %% 1 else _normalize(_t)" % (
            dest, _NORMALIZED_INT
        )

    def _bail(self, out, instruction, reason, actual="None"):
        """Append the cold bail-branch body for a failed guard: stamp
        the progress marker (elided from the hot path) and raise
        through ``_bw``."""
        self._cold_mark(out)
        out.append(" " + self._bail_call(instruction, reason, actual))

    def _bail_call(self, instruction, reason, actual="None"):
        snap = instruction.snapshot
        return "_bw(%s, %s, %r, %r, %s)" % (
            self.binder.bind(snap, BIND_SNAPSHOT, self.cur_index),
            self.snap_vals(snap),
            reason,
            instruction.op,
            actual,
        )

    def _emit_op(self, out, instruction, slot_offset):
        op = instruction.op
        srcs = instruction.srcs
        extra = instruction.extra
        snap = instruction.snapshot
        binder = self.binder
        v = self.val
        d = lambda: self.val(instruction.dest)

        if op == "move":
            out.append("%s = %s" % (d(), v(srcs[0])))
        elif op == "const":
            out.append("%s = %s" % (d(), binder.lit(extra, BIND_EXTRA, self.cur_index)))
        elif op == "getarg":
            if extra == -1:
                out.append("%s = _c[0]" % d())
            else:
                # Consecutive argument loads (the entry prologue)
                # share one read of the argument list into ``_t``.
                if not self.args_in_t:
                    out.append("_t = _c[1]")
                    self.args_in_t = True
                out.append(
                    "%s = _t[%d] if %d < len(_t) else _UNDEF" % (d(), extra, extra)
                )
        elif op == "osrvalue":
            kind, arg_index = extra
            slot = CTX_OSR_ARGS if kind == "arg" else CTX_OSR_LOCALS
            out.append("%s = _c[%d][%d]" % (d(), slot, arg_index))
        elif op == "self":
            out.append("%s = _c[2]" % d())
        elif op in ("add_i", "sub_i"):
            sign = "+" if op == "add_i" else "-"
            if snap is None:
                out.append("%s = %s %s %s" % (d(), v(srcs[0]), sign, v(srcs[1])))
            else:
                out.append("_t = %s %s %s" % (v(srcs[0]), sign, v(srcs[1])))
                out.append("if _t > 2147483647 or _t < -2147483648:")
                self._bail(out, instruction, "overflow", "float(_t)")
                out.append("%s = _t" % d())
        elif op == "mul_i":
            if snap is None:
                out.append("%s = %s * %s" % (d(), v(srcs[0]), v(srcs[1])))
            else:
                out.append("_x = %s" % v(srcs[0]))
                out.append("_y = %s" % v(srcs[1]))
                out.append("_t = _x * _y")
                out.append("if _t > 2147483647 or _t < -2147483648:")
                self._bail(out, instruction, "overflow", "float(_t)")
                out.append("if _t == 0 and (_x < 0 or _y < 0):")
                self._bail(out, instruction, "negative zero", "-0.0")
                out.append("%s = _t" % d())
        elif op == "neg_i":
            if snap is None:
                out.append("%s = -%s" % (d(), v(srcs[0])))
            else:
                out.append("_t = %s" % v(srcs[0]))
                out.append("if _t == 0:")
                self._bail(out, instruction, "negative zero", "-0.0")
                out.append("if _t == -2147483648:")
                self._bail(out, instruction, "overflow", "-float(_t)")
                out.append("%s = -_t" % d())
        elif op in ("add_d", "sub_d", "mul_d"):
            # Operands are numbers (a DOUBLE-typed value may well be a
            # Python int: results are normalized), so only the result's
            # canonical form is in question — see :meth:`_normalized`.
            sign = {"add_d": "+", "sub_d": "-", "mul_d": "*"}[op]
            out.append("_t = %s %s %s" % (v(srcs[0]), sign, v(srcs[1])))
            out.append(self._normalized(d(), srcs))
        elif op == "div_d":
            helper = "%s = _js_div(%s, %s)" % (d(), v(srcs[0]), v(srcs[1]))
            self._emit_div(out, d(), srcs, "", helper, raises=False)
        elif op == "mod_d":
            helper = "%s = _js_mod(%s, %s)" % (d(), v(srcs[0]), v(srcs[1]))
            self._emit_mod(out, d(), srcs, "", helper, raises=False)
        elif op == "neg_d":
            out.append("%s = -%s" % (d(), v(srcs[0])))
        elif op == "bitop_i":
            # Operands are INT32-typed, so ``ToInt32`` is the identity
            # and the generic ``binary_op`` dispatch compiles away to
            # the host integer operator.  Only ``>>>`` can leave int32
            # (its result is uint32); every other operator closes over
            # int32, so its "uint32 overflow" guard can never fire and
            # is omitted — exactly the check ``type(result) is int``
            # the other backends evaluate to true.
            if extra == Op.USHR and snap is not None:
                out.append(
                    "_t = (%s & 4294967295) >> (%s & 31)" % (v(srcs[0]), v(srcs[1]))
                )
                out.append("if _t > 2147483647:")
                self._bail(out, instruction, "uint32 overflow", "float(_t)")
                out.append("%s = _t" % d())
            else:
                out.extend(self._int_operator(extra, v(srcs[0]), v(srcs[1]), d()))
        elif op == "toint32":
            # INT32-range ints pass through ``ToInt32`` unchanged; only
            # doubles (and exotic inputs) need the helper.
            kind = self.kind(srcs[0])
            if kind == _INT:
                out.append("%s = %s" % (d(), v(srcs[0])))
            elif kind == _FLOAT:
                out.append("%s = _to_int32(%s)" % (d(), v(srcs[0])))
            else:
                out.append("_t = %s" % v(srcs[0]))
                out.append("%s = _t if type(_t) is int else _to_int32(_t)" % d())
        elif op == "todouble":
            if self.kind(srcs[0]) == _FLOAT:
                out.append("%s = %s" % (d(), v(srcs[0])))
            else:
                out.append("%s = float(%s)" % (d(), v(srcs[0])))
        elif op == "concat":
            out.append("%s = %s + %s" % (d(), v(srcs[0]), v(srcs[1])))
        elif op == "compare":
            cmp_op, kind = extra
            py = _COMPARE_PY.get(cmp_op)
            if py is not None:
                out.append("%s = %s %s %s" % (d(), v(srcs[0]), py, v(srcs[1])))
            else:
                out.append(
                    "%s = _cmp(%s, %s, %s, %s)"
                    % (d(), binder.lit(cmp_op), binder.lit(kind), v(srcs[0]), v(srcs[1]))
                )
        elif op == "binary_v":
            # Generic sites dominate unspecialized code.  Each operator
            # with a cheap exact host form for numbers (or for ints)
            # gets that form in line, under whatever run-time test the
            # operands' kinds leave open, with the ``operations`` helper
            # as the else.  Equality is in line only for two numbers —
            # the abstract-equality coercion ladder stays in the helper.
            a, b = v(srcs[0]), v(srcs[1])
            helper = "%s = _binary(%s, %s, %s)" % (d(), binder.lit(extra), a, b)
            py = _GENERIC_NUMERIC_PY.get(extra)
            if py is not None:
                test = self._number_test(out, srcs)
                if extra in (Op.ADD, Op.SUB):
                    inline = ["_t = %s %s %s" % (a, py, b), self._normalized(d(), srcs)]
                else:
                    # Relational/equality on numbers is the host
                    # operator verbatim (NaN comparisons are False in
                    # both languages; int/float mixes compare exactly).
                    inline = ["%s = %s %s %s" % (d(), a, py, b)]
                self._arms(out, test, inline, helper)
            elif extra in _BITOP_PY or extra in (Op.SHL, Op.SHR, Op.USHR):
                # ``ToInt32`` of an int is the int: the ``bitop_i`` text.
                inline = self._int_operator(extra, a, b, d())
                self._arms(out, self._int_test(srcs), inline, helper)
            elif extra == Op.DIV:
                self._emit_div(out, d(), srcs, self._number_test(out, srcs), helper)
            elif extra == Op.MOD:
                self._emit_mod(out, d(), srcs, self._number_test(out, srcs), helper)
            else:
                self._mark(out)
                out.append(helper)
        elif op == "unary_v":
            a = v(srcs[0])
            helper = "%s = _unary(%s, %s)" % (d(), binder.lit(extra), a)
            kind = self.kind(srcs[0])
            if extra in (Op.POS, Op.TONUM):
                # ToNumber of a number is the number, normalized: an int
                # is canonical already, a float as in :meth:`_normalized`.
                if kind == _FLOAT:
                    out.append("_t = %s" % a)
                    out.append("%s = %s" % (d(), _NORMALIZED_FLOAT))
                else:
                    self._arms(out, self._int_test(srcs), ["%s = %s" % (d(), a)], helper)
            elif extra == Op.BITNOT:
                self._arms(out, self._int_test(srcs), ["%s = ~%s" % (d(), a)], helper)
            else:
                self._mark(out)
                out.append(helper)
        elif op == "not":
            if self.kind(srcs[0]) == _BOOL:
                out.append("%s = not %s" % (d(), v(srcs[0])))
            else:
                out.append("%s = not _to_boolean(%s)" % (d(), v(srcs[0])))
        elif op == "typeof":
            out.append("%s = _type_of(%s)" % (d(), v(srcs[0])))
        elif op == "unbox":
            kind = self.kind(srcs[0])
            if extra == MIRType.DOUBLE:
                if kind == _FLOAT:
                    out.append("%s = %s" % (d(), v(srcs[0])))
                elif kind in _NUMERIC:
                    out.append("%s = float(%s)" % (d(), v(srcs[0])))
                else:
                    out.append("_t = %s" % v(srcs[0]))
                    out.append("_x = type(_t)")
                    out.append("if _x is not float and _x is not int:")
                    self._bail(out, instruction, "type guard", "_t")
                    out.append("%s = float(_t) if _x is int else _t" % d())
            elif self._passes(srcs[0], extra):
                # The value already passed this very check (the
                # ``typebarrier`` before it, typically): a move.
                out.append("%s = %s" % (d(), v(srcs[0])))
            else:
                out.append("_t = %s" % v(srcs[0]))
                self._emit_type_check(out, extra, instruction, "type guard")
                out.append("%s = _t" % d())
        elif op == "typebarrier":
            if self._passes(srcs[0], extra):
                out.append("%s = %s" % (d(), v(srcs[0])))
            else:
                out.append("_t = %s" % v(srcs[0]))
                self._emit_type_check(out, extra, instruction, "type barrier")
                out.append("%s = _t" % d())
        elif op == "checkoverrecursed":
            out.append("if _interp.call_depth >= %d:" % MAX_CALL_DEPTH)
            self._bail(out, instruction, "over-recursed")
        elif op == "arraylength":
            out.append("%s = len(%s.elements)" % (d(), v(srcs[0])))
        elif op == "stringlength":
            out.append("%s = len(%s)" % (d(), v(srcs[0])))
        elif op == "boundscheck":
            index, length = self._literal_int(srcs[0]), self._literal_int(srcs[1])
            if index is not None and index >= 0:
                # A literal index decides its own sign test (and, with a
                # literal length, the whole check: a pass emits nothing).
                if length is None or index >= length:
                    out.append("if %d >= %s:" % (index, v(srcs[1])))
                    self._bail(out, instruction, "bounds check")
            else:
                out.append("if %s < 0 or %s >= %s:" % (v(srcs[0]), v(srcs[0]), v(srcs[1])))
                self._bail(out, instruction, "bounds check")
        elif op == "guardshape":
            out.append(
                "if %s.shape.shape_id not in %s:" % (v(srcs[0]), binder.lit(extra, BIND_EXTRA, self.cur_index))
            )
            # Observed shape id as the bailout ``actual`` (engine-side
            # retrain-noop detection; never pushed by "at"-mode resume).
            self._bail(
                out, instruction, "shape guard", "%s.shape.shape_id" % v(srcs[0])
            )
        elif op == "loadelement":
            out.append("%s = %s.elements[%s]" % (d(), v(srcs[0]), v(srcs[1])))
        elif op == "storeelement":
            out.append("%s.elements[%s] = %s" % (v(srcs[0]), v(srcs[1]), v(srcs[2])))
        elif op == "getelem_v":
            # Inline the dense-array read ``get_element`` would take
            # for an in-range int index; everything else (doubles,
            # strings, objects, out-of-range) falls to the helper.
            a, b = v(srcs[0]), v(srcs[1])
            self._arms(
                out,
                self._dense_index_test(srcs[0], srcs[1]),
                ["%s = %s.elements[%s]" % (d(), a, b)],
                "%s = _get_element(%s, %s, _runtime)" % (d(), a, b),
            )
        elif op == "setelem_v":
            a, b, c = v(srcs[0]), v(srcs[1]), v(srcs[2])
            self._arms(
                out,
                self._dense_index_test(srcs[0], srcs[1]),
                ["%s.elements[%s] = %s" % (a, b, c)],
                "_set_element(%s, %s, %s)" % (a, b, c),
            )
        elif op == "loadprop":
            if slot_offset is not None:
                out.append("%s = %s.slots[%d]" % (d(), v(srcs[0]), slot_offset))
            else:
                out.append("%s = %s.get(%s)" % (d(), v(srcs[0]), binder.lit(extra)))
        elif op == "storeprop":
            if slot_offset is not None:
                out.append("%s.slots[%d] = %s" % (v(srcs[0]), slot_offset, v(srcs[1])))
            else:
                out.append("%s.set(%s, %s)" % (v(srcs[0]), binder.lit(extra), v(srcs[1])))
        elif op == "getprop_v":
            # A plain object (exact type: arrays and functions fall to
            # the helper) reads straight off its shape, skipping the
            # interpreter's receiver dispatch.
            a, name = v(srcs[0]), binder.lit(extra)
            if self.kind(srcs[0]) in (None, _OBJECT):
                out.append(
                    "%s = %s.get(%s) if type(%s) is _JSObject else _get_property(%s, %s)"
                    % (d(), a, name, a, a, name)
                )
            else:
                out.append("%s = _get_property(%s, %s)" % (d(), a, name))
        elif op == "setprop_v":
            a, name, value = v(srcs[0]), binder.lit(extra), v(srcs[1])
            if self.kind(srcs[0]) in (None, _OBJECT):
                out.append("if type(%s) is _JSObject:" % a)
                out.append(" %s.set(%s, %s)" % (a, name, value))
                out.append("else:")
                out.append(" _set_property(%s, %s, %s)" % (a, name, value))
            else:
                out.append("_set_property(%s, %s, %s)" % (a, name, value))
        elif op == "loadglobal":
            # The runtime's globals dict, directly; the helper only on a
            # miss, where it raises the ``JSReferenceError``.
            name = binder.lit(extra)
            out.append("try:")
            out.append(" %s = _G[%s]" % (d(), name))
            out.append("except KeyError:")
            self._cold_mark(out)
            out.append(" %s = _get_global(%s)" % (d(), name))
        elif op == "storeglobal":
            out.append("_G[%s] = %s" % (binder.lit(extra), v(srcs[0])))
        elif op == "newarray":
            out.append("%s = _JSArray(_root, [%s])" % (d(), ", ".join(v(loc) for loc in srcs)))
        elif op == "newobject":
            out.append("_t = _JSObject(_root)")
            for key, loc in zip(extra, srcs):
                out.append("_t.set(%s, %s)" % (binder.lit(key), v(loc)))
            out.append("%s = _t" % d())
        elif op == "lambda":
            out.append("%s = _JSFunction(%s, ())" % (d(), binder.bind(extra, BIND_EXTRA, self.cur_index)))
        elif op == "call":
            # Calling a guest function is by far the common case:
            # dispatch straight to call_function (what call_value does
            # after its two isinstance checks) and keep call_value for
            # native functions and the not-callable error.
            callee = v(srcs[0])
            this = v(srcs[1])
            arg_list = ", ".join(v(loc) for loc in srcs[2:])
            out.append("_t = %s" % callee)
            out.append(
                "%s = _call_function(_t, %s, [%s]) if type(_t) is _JSFunction "
                "else _call_value(_t, %s, [%s])" % (d(), this, arg_list, this, arg_list)
            )
        elif op == "new":
            out.append(
                "%s = _construct(%s, [%s])"
                % (d(), v(srcs[0]), ", ".join(v(loc) for loc in srcs[1:]))
            )
        elif op in _TERMINATORS:
            raise CompilerError("whole backend: terminator %r in region body" % op)
        else:
            raise CompilerError("whole backend: unknown op %r" % op)

    def _emit_type_check(self, out, expected, instruction, reason):
        if expected == MIRType.INT32:
            out.append("if type(_t) is not int:")
        elif expected == MIRType.BOOLEAN:
            out.append("if type(_t) is not bool:")
        elif expected == MIRType.STRING:
            out.append("if type(_t) is not str:")
        elif expected == MIRType.DOUBLE:
            out.append("if type(_t) is not float and type(_t) is not int:")
        elif expected == MIRType.FUNCTION:
            out.append("if not isinstance(_t, _FUNCS):")
        elif expected == MIRType.ARRAY:
            out.append("if not isinstance(_t, _JSArray):")
        elif expected == MIRType.OBJECT:
            out.append("if not isinstance(_t, _JSObject) or isinstance(_t, _JSArray):")
        else:
            # ``expected`` is the instruction's ``extra`` at both call sites.
            name = self.binder.bind(expected, BIND_EXTRA, self.cur_index)
            out.append("if not _matches(_t, %s):" % name)
        self._bail(out, instruction, reason, "_t")

    # -- region and skeleton emission ----------------------------------------

    def _init_locations(self, labels, bodies, entries):
        """Locations that must be pre-set to undefined on entry.

        The other backends allocate a value array initialized to
        undefined, so any location can be read (a snapshot naming a
        not-yet-assigned guest local, a merge where only one branch
        writes).  Materializing that as a per-call assignment chain over
        *every* read location would tax small hot functions, so a
        definitely-assigned forward dataflow over the region graph
        prunes it: a location needs the ``_UNDEF`` init only if some
        region can read it (as a source or a snapshot reconstruction
        value) without every path from an entry having written it
        first.  Reads of immediates are literals and never counted.
        ``labels`` are the translated regions and ``entries`` the entry
        points among them (every label is reachable from one).
        """
        instructions = self.native.instructions
        exposed = {}
        writes = {}
        successors = {}
        for label in labels:
            body = bodies[label]
            written = set()
            naked = set()
            for index in body:
                instruction = instructions[index]
                for loc in instruction.srcs:
                    if loc >= 0 and loc not in written:
                        naked.add(loc)
                if instruction.snapshot is not None:
                    for loc in instruction.snapshot.locations:
                        if loc >= 0 and loc not in written:
                            naked.add(loc)
                dest = instruction.dest
                if dest is not None and dest >= 0:
                    written.add(dest)
            exposed[label] = naked
            writes[label] = written
            successors[label] = _region_successors(instructions, body, bodies)

        # Definitely-assigned-on-entry per region: intersection over
        # predecessors, empty at the function entries.
        assigned = dict((entry, set()) for entry in entries)
        changed = True
        while changed:
            changed = False
            for label in labels:
                if label not in assigned:
                    continue
                flowing = assigned[label] | writes[label]
                for target in successors[label]:
                    known = assigned.get(target)
                    if known is None:
                        assigned[target] = set(flowing)
                        changed = True
                    elif not known <= flowing:
                        known &= flowing
                        changed = True

        needs = set()
        for label in labels:
            needs |= exposed[label] - assigned[label]
        return sorted(needs)

    def _trampolines(self, labels, bodies):
        """Map of *trivial* regions: pure move runs ending in a jump.

        The lowering splits critical edges into tiny phi-resolution
        regions — a few register moves and a ``goto`` (or ``return``)
        — and places them at the *bottom* of the binary.  Dispatching
        to them is pure overhead, and worse, it makes every back edge
        look like it originates at the end of the instruction stream,
        fusing all loop intervals into one giant nest.  These regions
        are instead inlined at their jump sites (they cannot fault, so
        charging their region constant at the splice point is exact),
        and the loop tree is computed over the *effective* edges.
        Chaos-instrumented translations skip the whole scheme: the
        injector addresses trampoline instructions by index, so they
        must stay dispatchable.
        """
        instructions = self.native.instructions
        trivial = {}
        if self.inject:
            return trivial
        for label in labels:
            body = bodies[label]
            if any(instructions[i].op != "move" for i in body[:-1]):
                continue
            terminator = instructions[body[-1]]
            if terminator.op == "goto":
                trivial[label] = ("goto", terminator.targets[0])
            elif terminator.op == "return":
                trivial[label] = ("return", terminator.srcs[0])
        return trivial

    def _resolve_target(self, target):
        """Resolve a jump target through trivial regions.

        Returns ``(splice, final, ret_src)``: the trivial region labels
        to inline at the jump site (in execution order), then either
        the label to dispatch to (``ret_src`` None) or the location to
        return (``final`` None).  A cyclic trampoline chain (an empty
        guest infinite loop) stops at the first revisited label, which
        stays dispatchable.
        """
        cached = self._res_cache.get(target)
        if cached is not None:
            return cached
        splice = []
        seen = set()
        cur = target
        result = None
        while True:
            kind_target = self.trivial.get(cur)
            if kind_target is None:
                result = (tuple(splice), cur, None)
                break
            if cur in seen:
                if cur in splice:
                    splice = splice[: splice.index(cur)]
                result = (tuple(splice), cur, None)
                break
            seen.add(cur)
            splice.append(cur)
            kind, where = kind_target
            if kind == "return":
                result = (tuple(splice), None, where)
                break
            cur = where
        self._res_cache[target] = result
        return result

    def _loop_tree(self, labels):
        """Group the region sequence into a tree of natural loops.

        A back edge from region ``L`` to target ``T <= L`` makes ``T``
        a loop header whose interval spans the labels ``[T, max L]``.
        Edges are the *effective* ones — jump targets resolved through
        inlined trampolines, including the fallthrough into a
        trampoline — so phi-resolution regions at the bottom of the
        binary do not stretch every interval.  Crossing intervals
        (irreducible flow) are merged by extension until the set
        nests, then the label sequence is folded into items:
        ``("region", label)`` or ``("loop", header, end, sub)``.
        """
        instructions = self.native.instructions
        bodies = self.bodies
        intervals = {}
        for label in labels:
            for target in _region_successors(instructions, bodies[label], bodies):
                _splice, final, _ret = self._resolve_target(target)
                if final is None:
                    continue
                if final <= label:
                    end = intervals.get(final)
                    if end is None or label > end:
                        intervals[final] = label
        changed = True
        while changed:
            changed = False
            headers = sorted(intervals)
            for position, header in enumerate(headers):
                for other in headers[position + 1 :]:
                    if other <= intervals[header] < intervals[other]:
                        intervals[header] = intervals[other]
                        changed = True
        return self._fold_items(labels, intervals, frozenset(), 1)

    def _fold_items(self, labels, intervals, open_headers, depth):
        items = []
        position = 0
        total = len(labels)
        while position < total:
            label = labels[position]
            if (
                label in intervals
                and label not in open_headers
                and depth < _MAX_LOOP_DEPTH
            ):
                end = intervals[label]
                stop = position
                while stop < total and labels[stop] <= end:
                    stop += 1
                sub = self._fold_items(
                    labels[position:stop], intervals, open_headers | {label}, depth + 1
                )
                items.append(("loop", label, end, sub))
                position = stop
            else:
                items.append(("region", label))
                position += 1
        return items

    def _emit_items(self, items, out, indent):
        """Chain arms for a (sub)sequence of regions and nested loops.

        Short sequences emit as a linear chain — consecutive regions
        fall from arm to arm with one integer compare each, which is
        the straight-line hot path.  Long sequences (big functions can
        have hundreds of regions) are split into a binary dispatch tree
        so a redispatch costs O(log n) compares instead of a linear
        scan; control that falls across a split boundary cascades to
        the enclosing redispatch point (loop bottom or skeleton top)
        and descends the tree again.

        Lines are appended to ``out`` already carrying ``indent``, one
        space per nesting level: the dispatch tree nests 8-14 deep on
        big binaries, and the text is tokenised, persisted and compared
        byte for byte on every warm load, so indentation is most of
        what a wider step would add to it.
        """
        inner = indent + " "
        if len(items) > _LINEAR_LIMIT:
            mid = len(items) // 2
            out.append("%sif _pc < %d:" % (indent, items[mid][1]))
            self._emit_items(items[:mid], out, inner)
            out.append(indent + "else:")
            self._emit_items(items[mid:], out, inner)
            return
        for item in items:
            if item[0] == "region":
                label = item[1]
                out.append("%sif _pc == %d:" % (indent, label))
                out.extend(inner + line for line in self._emit_region(label))
            else:
                _, header, end, sub_items = item
                out.append("%sif %d <= _pc <= %d:" % (indent, header, end))
                out.append(inner + "while True:")
                body = inner + " "
                self._emit_items(sub_items, out, body)
                # Falling past every arm means a jump left this loop
                # (break out to the enclosing chain) — unless a nested
                # break cascaded up with the header as target, in which
                # case re-enter.  Back edges never reach here: they
                # ``continue`` directly at the jump site.
                out.append("%sif %d <= _pc <= %d:" % (body, header, end))
                out.append(body + " continue")
                out.append(body + "break")

    def generate(self):
        """Build the module source; returns ``(source, counts, sums, prefix)``.

        Only the regions reachable from ``self.roots`` are translated;
        the tables are filled for exactly those (``prefix[label]`` is
        None for a leader that was not).
        """
        native = self.native
        instructions = native.instructions
        costs = native.cost_table(self.executor.cost_model)
        size = len(instructions)

        partition = _region_labels(native)
        leaders = set(partition)
        bodies = {}
        for label in partition:
            body = []
            index = label
            while True:
                body.append(index)
                if instructions[index].op in _TERMINATORS:
                    break
                if index + 1 >= size or index + 1 in leaders:
                    break
                index += 1
            bodies[label] = body
        labels = _reachable_labels(instructions, bodies, self.roots)
        bodies = dict((label, bodies[label]) for label in labels)
        entries = [pc for pc in _entries(native) if pc in bodies]

        counts = [0] * size
        sums = [0] * size
        prefix = [None] * size
        for label, body in bodies.items():
            counts[label] = len(body)
            running = 0
            region_prefix = []
            for index in body:
                running += costs[index]
                region_prefix.append(running)
            sums[label] = running
            prefix[label] = region_prefix

        self.bodies = bodies
        self.counts = counts
        self.sums = sums
        self.trivial = self._trampolines(labels, bodies)
        self._res_cache = {}
        # Trampolines are inlined at every jump to them, so they leave
        # the dispatch chain — except the translated entries (dispatched
        # by pc at call time) and any cycle-stopping label a resolution
        # targets.
        kept = set(label for label in labels if label not in self.trivial)
        kept.update(entries)
        for label in labels:
            _splice, final, _ret = self._resolve_target(label)
            if final is not None:
                kept.add(final)
        chain_labels = [label for label in labels if label in kept]

        lines = ["def _w(_c, _pc):"]
        reads = self._init_locations(labels, bodies, entries)
        for start in range(0, len(reads), 12):
            chunk = reads[start : start + 12]
            lines.append(" %s = _UNDEF" % " = ".join(self.val(loc) for loc in chunk))
        lines.append(" _a = 0")
        lines.append(" _i = 0")
        lines.append(" try:")
        lines.append("  while True:")
        self._emit_items(self._loop_tree(chain_labels), lines, "   ")
        # Falling past every arm is either a redispatch (control
        # crossed a split or loop boundary; rescan from the top) or a
        # fall off the end of the instruction stream (malformed
        # binary).
        lines.append("   if _pc < %d:" % size)
        lines.append("    continue")
        lines.append("   raise _badpc(_pc)")
        lines.append(" except BaseException:")
        lines.append("  _c[%d] = _i" % CTX_FAULT)
        lines.append("  _c[%d] = _a" % CTX_ACC)
        lines.append("  _c[%d] = _pc" % CTX_PC)
        lines.append("  raise")
        return "\n".join(lines), counts, sums, prefix

    def _emit_region(self, label):
        """Statements for one region (indented relative to its arm)."""
        instructions = self.native.instructions
        body = self.bodies[label]
        counts = self.counts
        sums = self.sums
        out = []
        self.known_i = None
        self.args_in_t = False
        self.kinds = {}
        shape_tracker = _ShapeGuardTracker(self.executor.runtime.shapes, self.shape_answers)

        def charge():
            if self.profiled:
                out.append("_bc[%d] += 1" % label)
            out.append(
                "_a += %d" % ((sums[label] << _ACC_SHIFT) | counts[label])
            )

        region_k = (sums[label] << _ACC_SHIFT) | counts[label]

        terminated = False
        for offset, index in enumerate(body):
            instruction = instructions[index]
            op = instruction.op
            if op == "goto":
                if self.profiled:
                    out.append("_bc[%d] += 1" % label)
                out.extend(
                    self._jump_lines(instruction.targets[0], label, base=region_k)
                )
                terminated = True
            elif op == "return":
                # The region's own charge folds into the final publish
                # (no accumulator update on the return path).
                if self.profiled:
                    out.append("_bc[%d] += 1" % label)
                out.append("_c[%d] = %s" % (CTX_RESULT, self.val(instruction.srcs[0])))
                out.append(
                    "_c[%d] = _a + %d"
                    % (CTX_ACC, (sums[label] << _ACC_SHIFT) | counts[label])
                )
                out.append("return")
                terminated = True
            elif op == "test":
                charge()
                t0, t1 = instruction.targets
                src = instruction.srcs[0]
                if self.kind(src) in (_BOOL, _INT):
                    # Host truthiness is ToBoolean for a bool and an int.
                    out.append("if %s:" % self.val(src))
                else:
                    out.append("_t = %s" % self.val(src))
                    out.append("if _t is True or (_t is not False and _to_boolean(_t)):")
                out.extend(" " + line for line in self._jump_lines(t0, label))
                out.append("else:")
                out.extend(" " + line for line in self._jump_lines(t1, label))
                terminated = True
            else:
                slot_offset = None
                if op in ("loadprop", "storeprop"):
                    slot_offset = shape_tracker.slot_offset(instruction)
                self.emit_instruction(out, index, offset, instruction, slot_offset)
                shape_tracker.observe(instruction)
        if not terminated:
            # The region flows into the next label: charge it and fall
            # down the chain to that label's arm (resolving through any
            # trampoline that happens to sit there).
            if self.profiled:
                out.append("_bc[%d] += 1" % label)
            out.extend(self._jump_lines(body[-1] + 1, label, base=region_k))
        return out

    def _jump_lines(self, target, label, base=0):
        """Statements for a jump from region ``label`` to ``target``.

        Trivial trampoline regions on the way are inlined: their moves
        execute at the splice point and their region constants fold
        into a single accumulator add (``base`` carries the source
        region's own constant when the caller wants it folded too).
        The jump then dispatches to the resolved final label — or
        returns directly when the chain ends in a trivial return.
        """
        splice, final, ret_src = self._resolve_target(target)
        lines = []
        total = base
        instructions = self.native.instructions
        for tramp in splice:
            if self.profiled:
                lines.append("_bc[%d] += 1" % tramp)
            for index in self.bodies[tramp][:-1]:
                ins = instructions[index]
                lines.append("%s = %s" % (self.val(ins.dest), self.val(ins.srcs[0])))
            total += (self.sums[tramp] << _ACC_SHIFT) | self.counts[tramp]
        if ret_src is not None:
            lines.append("_c[%d] = %s" % (CTX_RESULT, self.val(ret_src)))
            lines.append("_c[%d] = _a + %d" % (CTX_ACC, total))
            lines.append("return")
            return lines
        if total:
            lines.append("_a += %d" % total)
        lines.append("_pc = %d" % final)
        if final <= label:
            lines.append("continue")
        return lines


def _bad_pc(pc):
    return CompilerError("whole backend: control reached unknown pc %d" % pc)


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


#: Files whose text decides what :class:`_WholeEmitter` emits for a
#: given native stream (relative to the ``repro`` package).
_EMITTER_FILES = (
    "lir/wholefn.py",
    "lir/closures.py",
    "lir/native.py",
    "lir/lir_nodes.py",
    "lir/regalloc.py",
    "jsvm/objects.py",
)


@functools.lru_cache(maxsize=None)
def _emitter_digest():
    """A digest of the emitting code, once per process; None if unreadable.

    Covers the bytes of :data:`_EMITTER_FILES` and the one constant the
    emitted text bakes in from outside them.  Without the source there
    is nothing to compare, so nothing is persisted and nothing links.
    """
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.blake2b(repr(MAX_CALL_DEPTH).encode("utf-8"), digest_size=16)
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
    leaders = set(_region_labels(native))
    for label, region in record["prefix"]:
        if label not in leaders or not 0 < len(region) <= size - label:
            raise ValueError("table for %r, which is no region" % (label,))
    if not set(record["roots"]) <= set(_entries(native)):
        raise ValueError("roots %r are not entries" % (record["roots"],))
    for ids, name, _offset in record["shapes"]:
        if type(ids) is not tuple or type(name) is not str:
            raise ValueError("shape question %r" % ((ids, name),))
    return record


def _link(native, executor, roots, record):
    """Attach ``record``'s stored module to the live executor, or None.

    Links only if what the emission read still reads the same (the
    four checks of the module docstring); then rebuilds the base
    namespace, re-binds each ``_kN`` to the thawed native's own
    snapshot / payload / immediate and executes the module.  None — a
    failed check, or a blob that is not a module defining ``_w`` over
    bound names only — sends the caller down the ordinary emit path.
    """
    if (
        record["roots"] != tuple(roots)
        or record["emitter"] != _emitter_digest()
        or record["prices"] != executor.price_digest
    ):
        return None
    tree = executor.runtime.shapes
    for ids, name, offset in record["shapes"]:
        if common_slot_offset(tree, ids, name) != offset:
            return None
    namespace = _base_namespace(executor)
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
    for name, kind, index in emitter.bindings:
        if bound_value(native, kind, index) is not namespace[name]:
            return None
    return {
        "code": marshal.dumps(capture["module_code"]),
        "prefix": [(label, cache[6][label]) for label in emitter.bodies],
        "bindings": emitter.bindings,
        "roots": tuple(emitter.roots),
        "emitter": emitter_digest,
        "prices": executor.price_digest,
        "shapes": [
            (ids, name, offset) for (ids, name), offset in emitter.shape_answers.items()
        ],
    }


class WholeExecutor(NativeExecutor):
    """The whole-binary backend (``executor_backend="whole"``).

    Runs each binary as one generated Python function; shares guard
    semantics, cycle accounting and the bailout protocol with the other
    backends.  ``EngineStats``, cycle counts, printed output and trace
    streams are bit-identical to both.
    """

    def __init__(self, interpreter, cost_model):
        super(WholeExecutor, self).__init__(interpreter, cost_model)
        #: Translations that attached a stored module / ran the emitter
        #: (:func:`compile_whole`).  Host-side bookkeeping for tools and
        #: tests; no ledger reads them, so cold and warm stats agree.
        self.modules_linked = 0
        self.modules_emitted = 0
        #: What a link record's ``prices`` must equal (:func:`_link`).
        self.price_digest = native_price_digest(cost_model)

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
        cache = self._translate(native, roots=_entries(native))
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
