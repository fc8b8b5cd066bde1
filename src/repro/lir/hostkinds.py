"""Stage 2 of the whole backend: the host-type map.

What the emitter can prove, at translation time, about the *Python*
value a location holds (docs/CODEGEN.md, "The host-type map").  A
:class:`HostKinds` is stepped once per instruction of a region, in
order, and asked by the op templates and the skeleton; it is the only
code that reads or writes the map, and the map starts empty at every
region.  What it proves lets the emitter turn an ``unbox`` or
``typebarrier`` into a move and drop run-time ``type()`` tests.

Guardrail: every proof is local to one region body — a fact enters the
map only from an instruction earlier in the same body, and a write to a
location replaces what was known of it.  A chaos-instrumented
translation proves nothing: it must contain every guard and every
test, because the injector addresses them by index.
"""

from repro.jsvm.bytecode import Op
from repro.jsvm.objects import JSArray, JSObject
from repro.jsvm.values import JSFunction, NativeFunction
from repro.mir.types import MIRType

# The lattice.  ``number`` is the join of ``int`` and ``float``;
# ``other`` is a literal of none of these kinds (undefined, null); absent
# (None) means unknown.  A Python ``int`` in a location is an int32:
# every producer normalizes.
INT = "int"
FLOAT = "float"
NUMBER = "number"
BOOL = "bool"
STR = "str"
ARRAY = "array"
OBJECT = "object"
FUNCTION = "function"
OTHER = "other"
NUMERIC = frozenset([INT, FLOAT, NUMBER])

#: The kind a value has once it passed an ``unbox``/``typebarrier`` of
#: this type (``DOUBLE`` depends on the op and is handled there).
_KIND_OF_MIRTYPE = {
    MIRType.INT32: INT,
    MIRType.BOOLEAN: BOOL,
    MIRType.STRING: STR,
    MIRType.ARRAY: ARRAY,
    MIRType.OBJECT: OBJECT,
    MIRType.FUNCTION: FUNCTION,
}

#: Ops whose result kind is fixed by the op alone.
_RESULT_KIND = {
    "add_i": INT, "sub_i": INT, "mul_i": INT, "neg_i": INT, "toint32": INT,
    "arraylength": INT, "stringlength": INT,
    "add_d": NUMBER, "sub_d": NUMBER, "mul_d": NUMBER, "div_d": NUMBER,
    "mod_d": NUMBER, "neg_d": NUMBER,
    "todouble": FLOAT,
    "compare": BOOL, "not": BOOL,
    "concat": STR, "typeof": STR,
    "newarray": ARRAY, "newobject": OBJECT, "lambda": FUNCTION,
}

#: Result kind of a generic ``binary_v``/``unary_v`` by operator — what
#: ``operations`` returns whatever the operands were (``+`` may
#: concatenate and is decided from its operands).
_GENERIC_RESULT_KIND = {
    Op.SUB: NUMBER, Op.MUL: NUMBER, Op.DIV: NUMBER, Op.MOD: NUMBER,
    Op.USHR: NUMBER, Op.NEG: NUMBER, Op.POS: NUMBER, Op.TONUM: NUMBER,
    Op.BITAND: INT, Op.BITOR: INT, Op.BITXOR: INT, Op.SHL: INT, Op.SHR: INT,
    Op.BITNOT: INT,
    Op.EQ: BOOL, Op.NE: BOOL, Op.STRICTEQ: BOOL, Op.STRICTNE: BOOL, Op.LT: BOOL,
    Op.LE: BOOL, Op.GT: BOOL, Op.GE: BOOL, Op.IN: BOOL, Op.NOT: BOOL,
    Op.TYPEOF: STR,
}


def literal_kind(value):
    """The kind of an immediate: its value is known exactly."""
    kind = type(value)
    if kind is int:
        return INT if -2147483648 <= value <= 2147483647 else None
    if kind is float:
        return FLOAT
    if kind is bool:
        return BOOL
    if kind is str:
        return STR
    if isinstance(value, JSArray):
        return ARRAY
    if isinstance(value, JSObject):
        return OBJECT
    if isinstance(value, (JSFunction, NativeFunction)):
        return FUNCTION
    return OTHER


class HostKinds(object):
    """The host-type map of one translation: location -> kind.

    :meth:`enter_region` empties it, :meth:`step` moves it past one
    instruction, and :meth:`kind` and :meth:`elides` answer from it.
    """

    def __init__(self, native, inject):
        self._immediates = native.immediates
        self._inject = inject
        self._kinds = {}

    def enter_region(self):
        """Forget everything: a region is entered from anywhere."""
        self._kinds = {}

    def kind(self, loc):
        """What this translation knows of the Python value in ``loc``.

        One of the kind constants, or None for "anything".  Immediates
        are known exactly; a register or slot is known by what the
        region stepped over so far did to it.
        """
        if self._inject:
            return None
        if loc < 0:
            return literal_kind(self._immediates[loc])
        return self._kinds.get(loc)

    def elides(self, instruction):
        """Whether the value in the source of this ``unbox`` or
        ``typebarrier`` is known to pass its check, so that it needs no
        run-time test."""
        kind = self.kind(instruction.srcs[0])
        expected = instruction.extra
        if expected == MIRType.VALUE:
            return True
        if expected == MIRType.DOUBLE:
            return kind in NUMERIC
        return kind is not None and kind == _KIND_OF_MIRTYPE.get(expected)

    def step(self, instruction):
        """Move the map past ``instruction`` having executed."""
        result = self._result_kind(instruction)
        kinds = self._kinds
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
            return before if before in NUMERIC else NUMBER
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
            return literal_kind(instruction.extra)
        if op == "unbox" and instruction.extra == MIRType.DOUBLE:
            return FLOAT
        if op == "unbox" or op == "typebarrier":
            return self._checked_kind(instruction)
        if op == "bitop_i":
            if instruction.extra == Op.USHR and instruction.snapshot is None:
                return NUMBER
            return INT
        if op == "binary_v":
            if instruction.extra == Op.ADD:
                a, b = instruction.srcs
                if self.kind(a) in NUMERIC and self.kind(b) in NUMERIC:
                    return NUMBER
                return None
            return _GENERIC_RESULT_KIND.get(instruction.extra)
        if op == "unary_v":
            if instruction.extra in (Op.POS, Op.TONUM) and self.kind(instruction.srcs[0]) == INT:
                return INT
            return _GENERIC_RESULT_KIND.get(instruction.extra)
        return None
