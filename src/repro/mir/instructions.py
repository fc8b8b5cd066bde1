"""MIR instruction classes.

Every instruction is an SSA definition (:class:`MDefinition`) with
typed operands, a def-use web, and effect/guard metadata that the
optimization passes consult:

* ``is_guard`` — the instruction may trigger a bailout back to the
  interpreter (type guards, overflow checks, bounds checks).  Guards
  carry a :class:`ResumePoint` describing how to rebuild the
  interpreter frame.
* ``effect`` — ``EFFECT_NONE`` (pure), ``EFFECT_LOAD`` (reads the
  heap), ``EFFECT_STORE`` (writes the heap or calls out).  Pure
  instructions are eligible for GVN/LICM/DCE; loads are movable only
  under the paper's naive alias analysis (no stores anywhere in the
  graph); stores pin everything.

The instruction vocabulary intentionally mirrors the paper's Figure 6:
``parameter``, ``constant``, ``unbox``, ``typebarrier``, ``checkarray``
(= bounds check), ``ld``/``st`` (element access), ``call``,
``resumepoint``, ``checkoverrecursed``, phis, and the arithmetic and
comparison families.
"""

from repro.mir.types import MIRType, mirtype_of_value

EFFECT_NONE = 0
EFFECT_LOAD = 1
EFFECT_STORE = 2


class ResumePoint(object):
    """A snapshot telling a bailout how to rebuild the interpreter frame.

    ``mode`` is ``"at"`` (resume by re-executing the bytecode at
    ``pc``) or ``"after"`` (resume at ``pc + 1`` with the faulting
    instruction's computed value pushed on the rebuilt stack).

    Operands are live MIR values in the fixed layout
    ``[args..., locals..., stack...]``; the executor reads their native
    locations to materialize the frame.  Resume-point operands count as
    uses, so DCE keeps them alive.
    """

    MODE_AT = "at"
    MODE_AFTER = "after"

    __slots__ = ("pc", "mode", "operands", "num_args", "num_locals")

    def __init__(self, pc, mode, args, locals_, stack):
        self.pc = pc
        self.mode = mode
        operands = list(args) + list(locals_) + list(stack)
        self.operands = operands
        self.num_args = len(args)
        self.num_locals = len(locals_)
        # Inlined add_use: this runs for every live value at every
        # resume point, the hottest loop of MIR graph construction.
        index = 0
        for operand in operands:
            operand.uses.append((self, index))
            index += 1

    @property
    def args(self):
        return self.operands[: self.num_args]

    @property
    def locals(self):
        return self.operands[self.num_args : self.num_args + self.num_locals]

    @property
    def stack(self):
        return self.operands[self.num_args + self.num_locals :]

    def set_operand(self, index, new_value):
        old = self.operands[index]
        old.remove_use(self, index)
        self.operands[index] = new_value
        new_value.add_use(self, index)

    def discard(self):
        """Drop all uses (when the owning instruction is removed)."""
        for index, operand in enumerate(self.operands):
            operand.remove_use(self, index)
        self.operands = []
        self.num_args = 0
        self.num_locals = 0

    def __repr__(self):
        return "ResumePoint(pc=%d, %s)" % (self.pc, self.mode)


class MDefinition(object):
    """Base class of all MIR instructions (every one defines a value)."""

    opcode = "?"
    is_guard = False
    is_control = False
    effect = EFFECT_NONE
    #: Whether DCE may remove the instruction when its value is unused.
    removable = True
    #: Whether GVN/LICM may merge/hoist it.
    movable = True

    __slots__ = ("id", "block", "operands", "uses", "type", "resume_point")

    def __init__(self, operands=(), mirtype=MIRType.VALUE):
        self.id = -1
        self.block = None
        ops = list(operands)
        self.operands = ops
        self.uses = []
        self.type = mirtype
        self.resume_point = None
        # Inlined add_use (one definition, never overridden): this
        # constructor runs for every MIR instruction ever built.
        index = 0
        for operand in ops:
            operand.uses.append((self, index))
            index += 1

    # -- def-use web ---------------------------------------------------------

    def add_use(self, consumer, index):
        self.uses.append((consumer, index))

    def remove_use(self, consumer, index):
        try:
            self.uses.remove((consumer, index))
        except ValueError:
            pass

    def set_operand(self, index, new_value):
        old = self.operands[index]
        old.remove_use(self, index)
        self.operands[index] = new_value
        new_value.add_use(self, index)

    def replace_all_uses_with(self, replacement):
        """Redirect every use of self (including resume points) to
        ``replacement``."""
        if replacement is self:
            return
        for consumer, index in list(self.uses):
            consumer.set_operand(index, replacement)

    def has_uses(self):
        return bool(self.uses)

    def attach_resume_point(self, resume_point):
        self.resume_point = resume_point

    def release_operands(self):
        """Drop operand uses and the resume point (before removal)."""
        for index, operand in enumerate(self.operands):
            operand.remove_use(self, index)
        self.operands = []
        if self.resume_point is not None:
            self.resume_point.discard()
            self.resume_point = None

    # -- GVN support -----------------------------------------------------------

    def congruence_extra(self):
        """Instruction-specific key material for value numbering."""
        return None

    def congruence_key(self):
        if self.effect != EFFECT_NONE or self.is_guard or not self.movable:
            return None
        return (
            self.opcode,
            self.type,
            self.congruence_extra(),
            tuple(operand.id for operand in self.operands),
        )

    def __repr__(self):
        operand_text = ", ".join("v%d" % operand.id for operand in self.operands)
        return "v%d = %s(%s) :%s" % (self.id, self.opcode, operand_text, self.type)


# ---------------------------------------------------------------------------
# Entry values
# ---------------------------------------------------------------------------


class MParameter(MDefinition):
    """A formal parameter; ``index == -1`` is ``this`` (cf. Figure 5)."""

    opcode = "parameter"
    movable = False
    __slots__ = ("index",)

    def __init__(self, index):
        super().__init__((), MIRType.VALUE)
        self.index = index

    def __repr__(self):
        return "v%d = parameter %d :%s" % (self.id, self.index, self.type)


class MOsrValue(MDefinition):
    """A value flowing in through the OSR entry block (arg or local slot)."""

    opcode = "osrvalue"
    movable = False
    __slots__ = ("kind", "index")

    def __init__(self, kind, index):
        super().__init__((), MIRType.VALUE)
        self.kind = kind  # "arg" | "local"
        self.index = index

    def __repr__(self):
        return "v%d = osrvalue %s[%d]" % (self.id, self.kind, self.index)


class MConstant(MDefinition):
    """A compile-time constant guest value.

    Parameter specialization manufactures these from the interpreter
    stack's actual argument values (paper §3.2).
    """

    opcode = "constant"
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__((), mirtype_of_value(value))
        self.value = value

    def congruence_extra(self):
        from repro.jsvm.values import value_key

        return value_key(self.value)

    def __repr__(self):
        return "v%d = constant %r :%s" % (self.id, self.value, self.type)


class MPhi(MDefinition):
    """SSA phi; operands align with the owning block's predecessors."""

    opcode = "phi"
    movable = False
    __slots__ = ("slot",)

    def __init__(self, mirtype=MIRType.VALUE, slot=None):
        super().__init__((), mirtype)
        self.slot = slot  # debugging aid: ("arg"|"local"|"stack", index)

    def add_input(self, value):
        self.operands.append(value)
        value.add_use(self, len(self.operands) - 1)

    def __repr__(self):
        operand_text = ", ".join("v%d" % operand.id for operand in self.operands)
        return "v%d = phi(%s) :%s" % (self.id, operand_text, self.type)


# ---------------------------------------------------------------------------
# Boxing, guards and conversions
# ---------------------------------------------------------------------------


class MUnbox(MDefinition):
    """Guard that a boxed value has a given type; yields the unboxed value."""

    opcode = "unbox"
    is_guard = True
    __slots__ = ()

    def __init__(self, value, mirtype):
        super().__init__((value,), mirtype)

    def congruence_key(self):
        # Unbox guards of the same value to the same type are congruent.
        return (self.opcode, self.type, tuple(operand.id for operand in self.operands))


class MBox(MDefinition):
    """Box a typed value back into a generic Value."""

    opcode = "box"
    __slots__ = ()

    def __init__(self, value):
        super().__init__((value,), MIRType.VALUE)


class MTypeBarrier(MDefinition):
    """Guard that a boxed value matches the profiled type; passes it through.

    This is the ``typebarrier`` of the paper's Figure 6, used after
    calls and loads whose observed types the compiler speculates on.
    """

    opcode = "typebarrier"
    is_guard = True
    __slots__ = ("expected",)

    def __init__(self, value, expected_mirtype):
        super().__init__((value,), MIRType.VALUE)
        self.expected = expected_mirtype

    def congruence_key(self):
        return (self.opcode, self.expected, tuple(operand.id for operand in self.operands))

    def __repr__(self):
        return "v%d = typebarrier v%d, %s" % (self.id, self.operands[0].id, self.expected)


class MToDouble(MDefinition):
    """Numeric widening int32 → double (never bails)."""

    opcode = "todouble"
    __slots__ = ()

    def __init__(self, value):
        super().__init__((value,), MIRType.DOUBLE)


class MToInt32(MDefinition):
    """JS ToInt32 truncation for bitwise operators (never bails)."""

    opcode = "toint32"
    __slots__ = ()

    def __init__(self, value):
        super().__init__((value,), MIRType.INT32)


class MCheckOverRecursed(MDefinition):
    """Stack-depth guard at function entry (Figure 6)."""

    opcode = "checkoverrecursed"
    is_guard = True
    removable = False
    movable = False
    __slots__ = ()

    def __init__(self):
        super().__init__((), MIRType.UNDEFINED)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


class MBinaryArithI(MDefinition):
    """Specialized int32 arithmetic (+ - *) with an overflow guard.

    ``is_guard`` is per-instance: the overflow-check-elimination
    extension clears it when range analysis proves the result fits
    int32 (and, for ``*``, cannot be a negative zero).
    """

    opcode = "arith_i"
    __slots__ = ("op", "is_guard")

    def __init__(self, op, lhs, rhs):
        super().__init__((lhs, rhs), MIRType.INT32)
        self.op = op  # bytecode Op.ADD / Op.SUB / Op.MUL
        self.is_guard = True  # overflow bailout

    def congruence_key(self):
        return (self.opcode, self.op, tuple(operand.id for operand in self.operands))

    def __repr__(self):
        return "v%d = %s_i v%d, v%d" % (
            self.id,
            self.op.lower(),
            self.operands[0].id,
            self.operands[1].id,
        )


class MBinaryArithD(MDefinition):
    """Double arithmetic (+ - * / %); never bails."""

    opcode = "arith_d"
    __slots__ = ("op",)

    def __init__(self, op, lhs, rhs):
        super().__init__((lhs, rhs), MIRType.DOUBLE)
        self.op = op

    def congruence_extra(self):
        return self.op

    def __repr__(self):
        return "v%d = %s_d v%d, v%d" % (
            self.id,
            self.op.lower(),
            self.operands[0].id,
            self.operands[1].id,
        )


class MBitOpI(MDefinition):
    """Int32 bitwise/shift operators; only ``>>>`` can bail (uint32 overflow).

    ``is_guard`` is per-instance here: it is True only for ``>>>``,
    whose uint32 result bails out when it exceeds INT32_MAX.
    """

    opcode = "bitop_i"
    __slots__ = ("op", "is_guard")

    def __init__(self, op, lhs, rhs, is_guard=False):
        super().__init__((lhs, rhs), MIRType.INT32)
        self.op = op
        self.is_guard = is_guard

    def congruence_key(self):
        return (self.opcode, self.op, tuple(operand.id for operand in self.operands))

    def __repr__(self):
        return "v%d = %s_i v%d, v%d" % (
            self.id,
            self.op.lower(),
            self.operands[0].id,
            self.operands[1].id,
        )


class MNegI(MDefinition):
    """Int32 negation; bails on 0 (JS -0 is a double) and INT32_MIN.

    Per-instance ``is_guard``, clearable by overflow-check elimination
    when the operand range excludes both hazards.
    """

    opcode = "neg_i"
    __slots__ = ("is_guard",)

    def __init__(self, value):
        super().__init__((value,), MIRType.INT32)
        self.is_guard = True


class MNegD(MDefinition):
    """Double negation (never bails)."""

    opcode = "neg_d"
    __slots__ = ()

    def __init__(self, value):
        super().__init__((value,), MIRType.DOUBLE)


class MConcat(MDefinition):
    """String concatenation of two string-typed values."""

    opcode = "concat"
    __slots__ = ()

    def __init__(self, lhs, rhs):
        super().__init__((lhs, rhs), MIRType.STRING)


class MCompare(MDefinition):
    """Specialized comparison producing a boolean.

    ``kind`` selects the operand specialization: ``"i"`` (int32),
    ``"d"`` (double), ``"s"`` (string).  Generic comparisons use
    :class:`MBinaryV`.
    """

    opcode = "compare"
    __slots__ = ("op", "kind")

    def __init__(self, op, kind, lhs, rhs):
        super().__init__((lhs, rhs), MIRType.BOOLEAN)
        self.op = op
        self.kind = kind

    def congruence_extra(self):
        return (self.op, self.kind)

    def __repr__(self):
        return "v%d = %s_%s v%d, v%d" % (
            self.id,
            self.op.lower(),
            self.kind,
            self.operands[0].id,
            self.operands[1].id,
        )


class MBinaryV(MDefinition):
    """Generic (boxed) binary operator; evaluated by the VM helper.

    Never bails — it computes the full JS semantics — but it is far
    slower than the specialized forms, which is exactly the cost type
    specialization and value specialization remove.
    """

    opcode = "binary_v"
    __slots__ = ("op",)

    # Generic + can call toString on objects in principle; our subset's
    # coercions are pure, so binary_v stays pure and GVN-able.

    def __init__(self, op, lhs, rhs):
        super().__init__((lhs, rhs), MIRType.VALUE)
        self.op = op

    def congruence_extra(self):
        return self.op

    def __repr__(self):
        return "v%d = %s_v v%d, v%d" % (
            self.id,
            self.op.lower(),
            self.operands[0].id,
            self.operands[1].id,
        )


class MUnaryV(MDefinition):
    """Generic unary operator on a boxed value."""

    opcode = "unary_v"
    __slots__ = ("op",)

    def __init__(self, op, value):
        super().__init__((value,), MIRType.VALUE)
        self.op = op

    def congruence_extra(self):
        return self.op

    def __repr__(self):
        return "v%d = %s_v v%d" % (self.id, self.op.lower(), self.operands[0].id)


class MNot(MDefinition):
    """Boolean negation via ToBoolean."""

    opcode = "not"
    __slots__ = ()

    def __init__(self, value):
        super().__init__((value,), MIRType.BOOLEAN)


class MTypeOf(MDefinition):
    """The ``typeof`` operator; foldable once its operand's type is known."""

    opcode = "typeof"
    __slots__ = ()

    def __init__(self, value):
        super().__init__((value,), MIRType.STRING)


# ---------------------------------------------------------------------------
# Heap access
# ---------------------------------------------------------------------------


class MArrayLength(MDefinition):
    """Read ``array.length`` (an int32)."""

    opcode = "arraylength"
    effect = EFFECT_LOAD
    __slots__ = ()

    def __init__(self, array):
        super().__init__((array,), MIRType.INT32)


class MStringLength(MDefinition):
    """Read ``string.length``; pure (strings are immutable)."""

    opcode = "stringlength"
    __slots__ = ()

    def __init__(self, string):
        super().__init__((string,), MIRType.INT32)


class MBoundsCheck(MDefinition):
    """Guard ``0 <= index < length`` (the paper's ``checkarray``).

    Carries no result; the following element access assumes it.  Only
    the bounds-check-elimination pass may delete it.
    """

    opcode = "boundscheck"
    is_guard = True
    removable = False
    movable = False
    __slots__ = ()

    def __init__(self, index, length):
        super().__init__((index, length), MIRType.UNDEFINED)


class MLoadElement(MDefinition):
    """Fast in-bounds array element load (the paper's ``ld``).

    Not movable: it must stay behind the bounds check guarding it.
    """

    opcode = "loadelement"
    effect = EFFECT_LOAD
    movable = False
    __slots__ = ()

    def __init__(self, array, index):
        super().__init__((array, index), MIRType.VALUE)


class MStoreElement(MDefinition):
    """Fast in-bounds array element store (the paper's ``st``)."""

    opcode = "storeelement"
    effect = EFFECT_STORE
    removable = False
    movable = False
    __slots__ = ()

    def __init__(self, array, index, value):
        super().__init__((array, index, value), MIRType.UNDEFINED)


class MGetElemV(MDefinition):
    """Generic indexed read (strings, objects, out-of-bounds, holes)."""

    opcode = "getelem_v"
    effect = EFFECT_LOAD
    __slots__ = ()

    def __init__(self, obj, index):
        super().__init__((obj, index), MIRType.VALUE)


class MSetElemV(MDefinition):
    """Generic indexed write (may grow arrays)."""

    opcode = "setelem_v"
    effect = EFFECT_STORE
    removable = False
    movable = False
    __slots__ = ()

    def __init__(self, obj, index, value):
        super().__init__((obj, index, value), MIRType.UNDEFINED)


class MGuardShape(MDefinition):
    """Guard that an object's hidden-class shape is one the IC cached.

    ``shape_ids`` is the (ordered) tuple of acceptable shape ids from
    the property site's inline cache — one id for a monomorphic site,
    up to :data:`repro.jsvm.feedback.MAX_IC_SHAPES` for a polymorphic
    one.  Carries no result; the following :class:`MLoadProperty` /
    :class:`MStoreProperty` fast path assumes it.  On failure the
    bailout resumes *at* the property bytecode, whose interpreter
    handler both performs the generic access and feeds the offending
    shape back into the IC.
    """

    opcode = "guardshape"
    is_guard = True
    removable = False
    movable = False
    __slots__ = ("shape_ids",)

    def __init__(self, obj, shape_ids):
        super().__init__((obj,), MIRType.UNDEFINED)
        self.shape_ids = tuple(shape_ids)

    def __repr__(self):
        return "v%d = guardshape v%d, %r" % (
            self.id,
            self.operands[0].id,
            self.shape_ids,
        )


class MLoadProperty(MDefinition):
    """Property read from a known JSObject."""

    opcode = "loadprop"
    effect = EFFECT_LOAD
    __slots__ = ("name",)

    def __init__(self, obj, name):
        super().__init__((obj,), MIRType.VALUE)
        self.name = name

    def __repr__(self):
        return "v%d = loadprop v%d, %r" % (self.id, self.operands[0].id, self.name)


class MStoreProperty(MDefinition):
    """Property write on a known JSObject."""

    opcode = "storeprop"
    effect = EFFECT_STORE
    removable = False
    movable = False
    __slots__ = ("name",)

    def __init__(self, obj, value, name):
        super().__init__((obj, value), MIRType.UNDEFINED)
        self.name = name

    def __repr__(self):
        return "v%d = storeprop v%d.%s = v%d" % (
            self.id,
            self.operands[0].id,
            self.name,
            self.operands[1].id,
        )


class MGetPropV(MDefinition):
    """Generic property read (any receiver, method tables included)."""

    opcode = "getprop_v"
    effect = EFFECT_LOAD
    __slots__ = ("name",)

    def __init__(self, obj, name):
        super().__init__((obj,), MIRType.VALUE)
        self.name = name


class MSetPropV(MDefinition):
    """Generic property write (any receiver)."""

    opcode = "setprop_v"
    effect = EFFECT_STORE
    removable = False
    movable = False
    __slots__ = ("name",)

    def __init__(self, obj, value, name):
        super().__init__((obj, value), MIRType.UNDEFINED)
        self.name = name


class MLoadGlobal(MDefinition):
    """Read a global binding by name."""

    opcode = "loadglobal"
    effect = EFFECT_LOAD
    __slots__ = ("name",)

    def __init__(self, name):
        super().__init__((), MIRType.VALUE)
        self.name = name

    def __repr__(self):
        return "v%d = loadglobal %r" % (self.id, self.name)


class MStoreGlobal(MDefinition):
    """Write a global binding by name."""

    opcode = "storeglobal"
    effect = EFFECT_STORE
    removable = False
    movable = False
    __slots__ = ("name",)

    def __init__(self, value, name):
        super().__init__((value,), MIRType.UNDEFINED)
        self.name = name


class MNewArray(MDefinition):
    """Array literal allocation."""

    opcode = "newarray"
    effect = EFFECT_STORE  # allocation is observable (identity)
    removable = False
    movable = False
    __slots__ = ()

    def __init__(self, elements):
        super().__init__(tuple(elements), MIRType.ARRAY)


class MNewObject(MDefinition):
    """Object literal allocation; ``keys`` are the literal's property names."""

    opcode = "newobject"
    effect = EFFECT_STORE
    removable = False
    movable = False
    __slots__ = ("keys",)

    def __init__(self, keys, values):
        super().__init__(tuple(values), MIRType.OBJECT)
        self.keys = tuple(keys)


class MLambda(MDefinition):
    """Closure instantiation for a nested function without free variables."""

    opcode = "lambda"
    effect = EFFECT_STORE  # each evaluation yields a fresh identity
    removable = False
    movable = False
    __slots__ = ("code",)

    def __init__(self, code):
        super().__init__((), MIRType.FUNCTION)
        self.code = code

    def __repr__(self):
        return "v%d = lambda <%s>" % (self.id, self.code.name)


class MSelf(MDefinition):
    """The currently executing function value."""

    opcode = "self"
    movable = False
    __slots__ = ()

    def __init__(self):
        super().__init__((), MIRType.FUNCTION)


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


class MCall(MDefinition):
    """Generic call: operands are ``[callee, this, args...]``."""

    opcode = "call"
    effect = EFFECT_STORE
    removable = False
    movable = False
    __slots__ = ()

    def __init__(self, callee, this_value, args):
        super().__init__((callee, this_value) + tuple(args), MIRType.VALUE)

    @property
    def callee(self):
        return self.operands[0]

    @property
    def this_value(self):
        return self.operands[1]

    @property
    def call_args(self):
        return self.operands[2:]


class MNew(MDefinition):
    """Constructor call: operands are ``[callee, args...]``."""

    opcode = "new"
    effect = EFFECT_STORE
    removable = False
    movable = False
    __slots__ = ()

    def __init__(self, callee, args):
        super().__init__((callee,) + tuple(args), MIRType.VALUE)


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


class MControl(MDefinition):
    """Base of block terminators; ``successors`` lists target blocks."""

    is_control = True
    removable = False
    movable = False
    __slots__ = ("successors",)

    def __init__(self, operands=()):
        super().__init__(operands, MIRType.UNDEFINED)
        self.successors = []


class MGoto(MControl):
    """Unconditional jump."""

    opcode = "goto"
    __slots__ = ()

    def __init__(self, target):
        super().__init__(())
        self.successors = [target]

    def __repr__(self):
        return "goto B%d" % self.successors[0].id


class MTest(MControl):
    """Conditional branch (the paper's ``brt``): [if_true, if_false]."""

    opcode = "test"
    __slots__ = ()

    def __init__(self, condition, if_true, if_false):
        super().__init__((condition,))
        self.successors = [if_true, if_false]

    def __repr__(self):
        return "test v%d ? B%d : B%d" % (
            self.operands[0].id,
            self.successors[0].id,
            self.successors[1].id,
        )


class MReturn(MControl):
    """Return a value to the caller."""

    opcode = "return"
    __slots__ = ()

    def __init__(self, value):
        super().__init__((value,))

    def __repr__(self):
        return "return v%d" % self.operands[0].id
