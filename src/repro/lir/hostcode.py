"""What both host-code generators share: blocks, bindings, the ``ctx`` list.

The closure backend (:mod:`repro.lir.closures`) and the whole-binary
backend (:mod:`repro.lir.wholefn`) both translate a
:class:`~repro.lir.native.NativeCode` into exec-generated Python, and the
cycle profiler (:mod:`repro.telemetry.profiler`) counts executions at
the same block partition.  This module holds what they agree on: the
block partition and its accounting tables, the ``ctx`` slots generated
code reads, how a runtime object is bound to a ``_kN`` name and where it
came from, and the in-block shape-guard tracker.  It imports neither
backend.
"""

from repro.jsvm import operations
from repro.jsvm.bytecode import Op
from repro.jsvm.objects import JSArray, JSObject, common_slot_offset
from repro.jsvm.values import UNDEFINED, JSFunction, normalize_number, to_boolean, type_of
from repro.lir.executor import _compare, _matches
from repro.mir.types import MIRType

#: Indices into the per-call ``ctx`` list generated code receives.
#: Kept as a plain list (not an object) so generated code pays a single
#: C-level index instead of attribute lookups.  ``CTX_FAULT`` holds the
#: in-block offset of the instruction that raised, published by the
#: faulting code for the driver's exact partial accounting.
(
    CTX_THIS,
    CTX_ARGS,
    CTX_FUNCTION,
    CTX_OSR_ARGS,
    CTX_OSR_LOCALS,
    CTX_RESULT,
    CTX_FAULT,
) = range(7)

#: Ops that terminate a basic block.
TERMINATORS = frozenset(["goto", "test", "return"])

#: Comparison operators whose Python operator matches guest semantics
#: exactly for every specialized ``compare`` kind (NaN compares false,
#: ``!=`` true, under both).
COMPARE_PY = {
    Op.LT: "<",
    Op.LE: "<=",
    Op.GT: ">",
    Op.GE: ">=",
    Op.EQ: "==",
    Op.STRICTEQ: "==",
    Op.NE: "!=",
    Op.STRICTNE: "!=",
}

#: The test a value ``_t`` fails an ``unbox``/``typebarrier`` of a
#: primitive type by: one C-level ``type`` identity test, matching
#: :func:`~repro.lir.executor._matches` exactly (``bool`` is not int32).
PRIMITIVE_TYPE_FAILS = {
    MIRType.INT32: "type(_t) is not int",
    MIRType.BOOLEAN: "type(_t) is not bool",
    MIRType.STRING: "type(_t) is not str",
    MIRType.DOUBLE: "type(_t) is not float and type(_t) is not int",
}


def block_leaders(native):
    """Indices that start a basic block: entries, jump targets, and
    the successor of every control-flow instruction."""
    instructions = native.instructions
    leaders = {native.entry_index}
    if native.osr_index is not None:
        leaders.add(native.osr_index)
    for index, instruction in enumerate(instructions):
        if instruction.targets is not None:
            leaders.update(instruction.targets)
        if instruction.op in TERMINATORS and index + 1 < len(instructions):
            leaders.add(index + 1)
    return sorted(leader for leader in leaders if 0 <= leader < len(instructions))


def block_bodies(native, leaders=None):
    """``{leader: [indices]}``: the walk from each of ``leaders`` (default
    :func:`block_leaders`) up to a terminator, the next leader, or the end
    of the stream."""
    instructions = native.instructions
    size = len(instructions)
    leader_set = set(block_leaders(native) if leaders is None else leaders)
    bodies = {}
    for leader in sorted(leader_set):
        body = [leader]
        index = leader
        while (
            instructions[index].op not in TERMINATORS
            and index + 1 < size
            and index + 1 not in leader_set
        ):
            index += 1
            body.append(index)
        bodies[leader] = body
    return bodies


def accounting_tables(native, bodies):
    """``(counts, sums, prefix)`` indexed by leader: each body's
    instruction count, summed static cost and inclusive cost prefix-sums
    (zero, zero and None at every other index)."""
    costs = native.cost_table()
    size = len(native.instructions)
    counts = [0] * size
    sums = [0] * size
    prefix = [None] * size
    for leader, body in bodies.items():
        running = 0
        body_prefix = []
        for index in body:
            running += costs[index]
            body_prefix.append(running)
        counts[leader] = len(body)
        sums[leader] = running
        prefix[leader] = body_prefix
    return counts, sums, prefix


def base_namespace(executor):
    """The globals both backends' generated code reads, bound afresh per
    translation to ``executor``'s interpreter and runtime; each backend
    adds its own few, and a binary's ``_kN`` names are numbered on from
    ``len()`` of the result (:class:`Binder`)."""
    interpreter = executor.interpreter
    runtime = executor.runtime
    return {
        "_UNDEF": UNDEFINED,
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
        "_call_value": interpreter.call_value,
        "_construct": interpreter.construct,
        "_JSArray": JSArray,
        "_JSObject": JSObject,
        "_JSFunction": JSFunction,
    }


#: Where a bound object comes from, as a kind and an index: the
#: snapshot or the ``extra`` of ``native.instructions[index]``, or
#: ``native.immediates[index]`` (a negative pool location).  Everything
#: codegen binds is one of the three, so a persisted module can have
#: its names re-attached to another copy of the same binary.
BIND_SNAPSHOT = "snapshot"
BIND_EXTRA = "extra"
BIND_IMMEDIATE = "immediate"


def bound_value(native, kind, index):
    """The object of ``native`` a binding of ``(kind, index)`` names."""
    if kind == BIND_SNAPSHOT:
        return native.instructions[index].snapshot
    if kind == BIND_EXTRA:
        return native.instructions[index].extra
    if kind == BIND_IMMEDIATE:
        return native.immediates[index]
    return None


class Binder(object):
    """Names runtime objects for the generated module's namespace.

    Codegen inlines what it can as source literals; everything else
    (snapshots, code objects, odd floats...) is bound to a fresh
    ``_kN`` name resolved through the exec namespace — the moral
    equivalent of a constant pool referenced rip-relative.  Given a
    ``bindings`` list, every bind is also recorded there as ``(name,
    kind, index)`` — the origin its caller states (:func:`bound_value`;
    None when it states none).
    """

    def __init__(self, namespace, bindings=None):
        self.namespace = namespace
        self.bindings = bindings

    def bind(self, value, kind=None, index=None):
        """Bind ``value`` into the namespace; returns its name."""
        name = "_k%d" % len(self.namespace)
        self.namespace[name] = value
        if self.bindings is not None:
            self.bindings.append((name, kind, index))
        return name

    def lit(self, value, kind=None, index=None):
        """Source text evaluating to ``value`` (literal when safe)."""
        if value is None or value is True or value is False:
            return repr(value)
        host = type(value)
        if host is int or host is str:
            return repr(value)
        if host is float:
            # NaN/inf have no literal spelling; -0.0 and friends do.
            if value != value or value in (float("inf"), float("-inf")):
                return self.bind(value, kind, index)
            return repr(value)
        return self.bind(value, kind, index)


#: Ops that may mutate an object's shape out from under a prior
#: ``guardshape`` without touching the guarded register: arbitrary
#: guest code (calls) and generic property/element writes.  Any of
#: these flushes the shape-guard tracker.
_SHAPE_CLOBBERS = frozenset(["call", "new", "setprop_v", "setelem_v", "storeprop"])


class ShapeGuardTracker(object):
    """Tracks which value locations are shape-guarded inside a block.

    Codegen walks each block linearly; a ``guardshape`` proves its
    receiver's shape is one of the guard's ids *from that point on*,
    until the receiver location is overwritten or any instruction runs
    that could transition a shape behind the register's back.  Both
    executor backends consult this to compile guarded ``loadprop`` /
    ``storeprop`` into constant-offset slot accesses
    (:func:`repro.jsvm.objects.common_slot_offset`).
    """

    def __init__(self, tree, answers=None):
        #: The executor runtime's ShapeTree — the id space the guards'
        #: shape ids were recorded in.
        self._tree = tree
        self._guards = {}
        #: ``(shape ids, name) -> offset or None`` for every question
        #: put to the tree, when the caller keeps them (the whole
        #: backend's link record: what was read of *this* runtime).
        self._answers = answers

    def slot_offset(self, instruction):
        """Constant slot offset for a loadprop/storeprop, or None."""
        shape_ids = self._guards.get(instruction.srcs[0])
        if not shape_ids:
            return None
        offset = common_slot_offset(self._tree, shape_ids, instruction.extra)
        if self._answers is not None:
            self._answers[tuple(shape_ids), instruction.extra] = offset
        return offset

    def observe(self, instruction):
        """Update tracking *after* codegen of ``instruction``."""
        if instruction.op in _SHAPE_CLOBBERS:
            self._guards.clear()
            return
        if instruction.op == "guardshape":
            self._guards[instruction.srcs[0]] = instruction.extra
        dest = instruction.dest
        if dest is not None:
            self._guards.pop(dest, None)
