"""Stack bytecode: the SpiderMonkey-analogue instruction set.

A :class:`CodeObject` is the unit of execution: the interpreter runs it
directly, and the JIT's MIR builder abstractly interprets it to build
the SSA graph.  The design follows SpiderMonkey's: a stack machine with
a constant pool, a name table for globals/properties, argument and
local slots, and CPython-style cells for variables captured by nested
closures.
"""

from repro.errors import CompilerError


class Op(object):
    """Opcode name constants.

    Stack effects are written ``[before] -> [after]`` with the stack
    top on the right.
    """

    # Constants and simple pushes
    CONST = "CONST"  # [] -> [constants[arg]]
    UNDEF = "UNDEF"  # [] -> [undefined]

    # Slots
    GETARG = "GETARG"  # [] -> [args[arg]]
    SETARG = "SETARG"  # [v] -> [] (writes args[arg])
    GETLOCAL = "GETLOCAL"  # [] -> [locals[arg]]
    SETLOCAL = "SETLOCAL"  # [v] -> []
    GETGLOBAL = "GETGLOBAL"  # [] -> [globals[names[arg]]]
    SETGLOBAL = "SETGLOBAL"  # [v] -> [] (writes globals[names[arg]])
    GETCELL = "GETCELL"  # [] -> [cells[arg].value]
    SETCELL = "SETCELL"  # [v] -> []
    GETFREE = "GETFREE"  # [] -> [closure[arg].value]
    SETFREE = "SETFREE"  # [v] -> []
    GETTHIS = "GETTHIS"  # [] -> [this]

    # Stack shuffling
    POP = "POP"  # [v] -> []
    DUP = "DUP"  # [v] -> [v, v]
    SWAP = "SWAP"  # [a, b] -> [b, a]

    # Arithmetic / logic (all pop operands, push result)
    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"
    DIV = "DIV"
    MOD = "MOD"
    BITAND = "BITAND"
    BITOR = "BITOR"
    BITXOR = "BITXOR"
    SHL = "SHL"
    SHR = "SHR"  # arithmetic >>
    USHR = "USHR"  # logical >>>
    NEG = "NEG"
    POS = "POS"  # unary +, i.e. ToNumber
    NOT = "NOT"
    BITNOT = "BITNOT"
    TYPEOF = "TYPEOF"
    TONUM = "TONUM"  # explicit ToNumber (for ++/--)
    EQ = "EQ"
    NE = "NE"
    STRICTEQ = "STRICTEQ"
    STRICTNE = "STRICTNE"
    LT = "LT"
    LE = "LE"
    GT = "GT"
    GE = "GE"
    IN = "IN"

    # Control flow (arg = target instruction index)
    JUMP = "JUMP"
    IFFALSE = "IFFALSE"  # [v] -> [] ; jump if falsy
    IFTRUE = "IFTRUE"  # [v] -> [] ; jump if truthy

    # Heap
    NEWARRAY = "NEWARRAY"  # [e1..en] -> [array]
    NEWOBJECT = "NEWOBJECT"  # [k1, v1, .., kn, vn] -> [object]
    GETPROP = "GETPROP"  # [obj] -> [obj.names[arg]]
    SETPROP = "SETPROP"  # [obj, v] -> [v]
    GETELEM = "GETELEM"  # [obj, idx] -> [obj[idx]]
    SETELEM = "SETELEM"  # [obj, idx, v] -> [v]
    DELPROP = "DELPROP"  # [obj] -> [true]

    # Functions
    SELF = "SELF"  # [] -> [currently executing function]
    CLOSURE = "CLOSURE"  # [] -> [function]; arg = constant-pool index of CodeObject
    CALL = "CALL"  # [callee, a1..an] -> [result]; arg = n
    NEW = "NEW"  # [ctor, a1..an] -> [object]; arg = n
    RETURN = "RETURN"  # [v] -> (function exits)
    RETURN_UNDEF = "RETURN_UNDEF"  # (function exits with undefined)


# Opcodes that transfer control; ``arg`` is an instruction index.
JUMP_OPS = frozenset([Op.JUMP, Op.IFFALSE, Op.IFTRUE])

# Opcodes after which control never falls through.
TERMINATOR_OPS = frozenset([Op.JUMP, Op.RETURN, Op.RETURN_UNDEF])

_BINARY_OPS = frozenset(
    [
        Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
        Op.BITAND, Op.BITOR, Op.BITXOR, Op.SHL, Op.SHR, Op.USHR,
        Op.EQ, Op.NE, Op.STRICTEQ, Op.STRICTNE,
        Op.LT, Op.LE, Op.GT, Op.GE, Op.IN,
    ]
)

_UNARY_OPS = frozenset([Op.NEG, Op.POS, Op.NOT, Op.BITNOT, Op.TYPEOF, Op.TONUM])


def is_binary_op(op):
    """True for opcodes that pop two operands and push one result."""
    return op in _BINARY_OPS


def is_unary_op(op):
    """True for opcodes that pop one operand and push one result."""
    return op in _UNARY_OPS


class Instr(object):
    """One bytecode instruction: an opcode and an optional operand."""

    __slots__ = ("op", "arg", "line")

    def __init__(self, op, arg=None, line=0):
        self.op = op
        self.arg = arg
        self.line = line

    def __repr__(self):
        if self.arg is None:
            return self.op.lower()
        return "%s %r" % (self.op.lower(), self.arg)


class CodeIds(object):
    """One runtime's code ids, as :class:`~repro.jsvm.objects.ShapeIds` for
    shapes: from 1, in the order its loader makes code objects."""

    __slots__ = ("next_id",)

    def __init__(self):
        self.next_id = 1

    def issue(self):
        code_id = self.next_id
        self.next_id = code_id + 1
        return code_id


class CodeObject(object):
    """Compiled bytecode for one function (or for the top-level script).

    Attributes:
        code_id: issued by its runtime's :class:`CodeIds` (0 if built by
            hand); names the function in stats, traces and profiles.
        name: function name, or ``"<toplevel>"``.
        params: parameter names, in order.
        local_names: names of local slots (parameters excluded).
        cell_names: names of locals captured by nested functions; their
            slots hold :class:`Cell` objects.
        free_names: names captured from enclosing functions; resolved
            through the closure at call time.
        constants: the constant pool (may contain nested CodeObjects).
        names: global/property name table.
        instructions: list of :class:`Instr`.
        uses_this: whether the body references ``this``.
        is_script: whether this is a program's top-level code, which is
            run once and never called (only functions are).
    """

    def __init__(self, name, params, code_id=0):
        self.code_id = code_id
        self.name = name
        self.params = list(params)
        self.local_names = []
        self.cell_names = []
        self.free_names = []
        self.constants = []
        self.names = []
        self.instructions = []
        self.uses_this = False
        self.is_script = False
        #: For named function expressions: the local name bound to the
        #: function itself (enables self-recursion).
        self.self_name = None
        #: Type feedback attached by the JIT engine once the function
        #: is warm; None while cold (zero profiling overhead when cold).
        self.feedback = None
        #: Threaded handler table, built lazily by the interpreter's
        #: dispatch loop; reset by any pass that rewrites
        #: ``instructions`` (loop rotation).
        self.threaded = None
        #: Digest of this object's content, memoised by the code cache
        #: on the first key it takes; reset together with ``threaded``.
        self.fingerprint = None
        #: Set by ``rotate_loops`` so a code object is rotated once.
        self.loops_rotated = False
        # Pool slot by content key, so interning is a lookup, not a scan;
        # dropped by :meth:`seal` once the pools are complete.
        self._const_slots = {}
        self._name_slots = {}

    # -- table interning ---------------------------------------------------

    def const_index(self, value):
        """Intern ``value`` in the constant pool and return its index.

        Primitives share a slot when they are equal *and* of one type
        (``1``, ``1.0`` and ``True`` stay apart; ``0.0`` and ``-0.0``
        share); anything else, and a NaN, is found only by identity.
        """
        kind = type(value)
        if kind in (int, float, str, bool) and value == value:
            key = (kind, value)
        else:
            key = id(value)
        index = self._const_slots.get(key)
        if index is None:
            index = self._const_slots[key] = len(self.constants)
            self.constants.append(value)
        return index

    def name_index(self, name):
        index = self._name_slots.get(name)
        if index is None:
            index = self._name_slots[name] = len(self.names)
            self.names.append(name)
        return index

    def seal(self):
        """End interning: the compiler is done, the lookup tables can go."""
        self._const_slots = self._name_slots = None

    # -- introspection -------------------------------------------------------

    @property
    def num_params(self):
        return len(self.params)

    @property
    def num_locals(self):
        return len(self.local_names)

    @property
    def has_cells(self):
        return bool(self.cell_names)

    @property
    def has_frees(self):
        return bool(self.free_names)

    def emit(self, op, arg=None, line=0):
        self.instructions.append(Instr(op, arg, line))
        return len(self.instructions) - 1

    def jump_targets(self):
        """The set of instruction indices that are jump targets."""
        targets = set()
        for instr in self.instructions:
            if instr.op in JUMP_OPS:
                targets.add(instr.arg)
        return targets

    def validate(self):
        """Check structural invariants; raises CompilerError on failure."""
        count = len(self.instructions)
        for index, instr in enumerate(self.instructions):
            if instr.op in JUMP_OPS:
                if not isinstance(instr.arg, int) or not 0 <= instr.arg < count:
                    raise CompilerError(
                        "instruction %d of %s jumps out of range: %r"
                        % (index, self.name, instr.arg)
                    )
        if count == 0 or self.instructions[-1].op not in TERMINATOR_OPS:
            raise CompilerError("code object %s does not end in a terminator" % self.name)

    def disassemble(self):
        """Human-readable listing, one instruction per line."""
        targets = self.jump_targets()
        lines = []
        for index, instr in enumerate(self.instructions):
            marker = ">>" if index in targets else "  "
            if instr.op == Op.CLOSURE:
                detail = "<code %s>" % self.constants[instr.arg].name
            elif instr.op == Op.CONST:
                detail = repr(self.constants[instr.arg])
            elif instr.op in (Op.GETGLOBAL, Op.SETGLOBAL, Op.GETPROP, Op.SETPROP, Op.DELPROP):
                detail = repr(self.names[instr.arg])
            elif instr.arg is not None:
                detail = str(instr.arg)
            else:
                detail = ""
            lines.append("%s %4d  %-12s %s" % (marker, index, instr.op.lower(), detail))
        return "\n".join(lines)

    def __repr__(self):
        return "<CodeObject %s (%d instrs)>" % (self.name, len(self.instructions))


class Cell(object):
    """A heap box for one captured variable (CPython-style)."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        from repro.jsvm.values import UNDEFINED

        self.value = UNDEFINED if value is None else value

    def __repr__(self):
        return "Cell(%r)" % (self.value,)
