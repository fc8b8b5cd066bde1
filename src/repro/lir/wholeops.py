"""Stage 3a of the whole backend: the op templates.

:class:`OpTemplates` appends the Python statements for one non-terminator
instruction of a region body.  Operand locations become locals (``_r0..``
for the eight registers, ``_s0..`` for spill slots — the same physical
locations :mod:`repro.lir.regalloc` assigned) and immediates inline as
source literals.  Guards compile to inline ``if`` checks raising the
bailout protocol through ``_bw``, with the snapshot's reconstruction
values spelled out as a tuple of locals.  Generic ops get an inline arm
for the operand kinds the host handles exactly, under whatever run-time
test the host-type map leaves open, with the ``operations`` helper as the
else.

Guardrail: a template only *asks* the host-type map
(:class:`~repro.lir.hostkinds.HostKinds`) and the shape-guard tracker's
answer; it moves neither.  The skeleton (:mod:`repro.lir.skeleton`)
steps them.
"""

from repro.errors import CompilerError
from repro.jsvm.bytecode import Op
from repro.jsvm.interpreter import MAX_CALL_DEPTH
from repro.lir.hostcode import (
    BIND_EXTRA,
    BIND_IMMEDIATE,
    BIND_SNAPSHOT,
    COMPARE_PY,
    CTX_OSR_ARGS,
    CTX_OSR_LOCALS,
    PRIMITIVE_TYPE_FAILS,
    Binder,
)
from repro.lir.hostkinds import BOOL, FLOAT, INT, NUMBER, NUMERIC, OBJECT, STR
from repro.lir.native import GUARD_OPS
from repro.lir.regalloc import NUM_REGS
from repro.mir.types import MIRType

#: Ops whose generated statements can raise *outside the generated
#: code's own control* — guest errors out of calls and runtime helpers
#: — on their hot path.  Only these need a hot-path ``_i`` progress
#: marker.  Guards raise too, but only through their own explicit
#: ``_bw``/``_fw`` cold branch, so their marker is emitted *inside*
#: that branch and the speculation-holds path runs marker-free; the
#: generic ops with an inline arm (``binary_v``, ``unary_v``,
#: ``getelem_v``, ``setelem_v``, ``loadglobal``) do the same for the
#: arm that calls their helper (:meth:`OpTemplates._arms`).
#: Everything else (moves, checked arithmetic whose guard passed,
#: bounds-checked heap access, comparisons, allocation, a global
#: store) is total by construction.
_HELPER_RAISES = frozenset(["osrvalue", "getprop_v", "setprop_v", "call", "new"])


#: Int32-closed bitwise operators inlined as host operators (see the
#: ``bitop_i`` emission for the shift family, which needs masking).
_BITOP_PY = {Op.BITAND: "&", Op.BITOR: "|", Op.BITXOR: "^"}

#: Generic ``binary_v`` operators with an inlineable both-numbers fast
#: path.  ADD/SUB normalize like the typed double ops; the relational
#: and equality operators map onto the host operator directly (for two
#: numbers ``js_compare``/``js_equals``/``js_strict_equals`` all reduce
#: to an exact host comparison, NaN included).  MUL is excluded: its
#: int×int negative-zero rule needs the helper.
_GENERIC_NUMERIC_PY = dict(COMPARE_PY)
_GENERIC_NUMERIC_PY.update({Op.ADD: "+", Op.SUB: "-"})

#: ``normalize_number(_t)`` in line, for an int ``_t`` and for a float one
#: (:meth:`OpTemplates._normalized`).
_NORMALIZED_INT = "_t if -2147483648 <= _t <= 2147483647 else float(_t)"
_NORMALIZED_FLOAT = (
    "_t if _t % 1 else int(_t) if _t and -2147483648.0 <= _t <= 2147483647.0 "
    "else _normalize(_t)"
)


#: :data:`~repro.lir.hostcode.PRIMITIVE_TYPE_FAILS` and the object types
#: the whole backend also tests in line; any other type asks ``_matches``.
_FAILS_TYPE = dict(PRIMITIVE_TYPE_FAILS)
_FAILS_TYPE.update(
    {
        MIRType.FUNCTION: "not isinstance(_t, _FUNCS)",
        MIRType.ARRAY: "not isinstance(_t, _JSArray)",
        MIRType.OBJECT: "not isinstance(_t, _JSObject) or isinstance(_t, _JSArray)",
    }
)


class OpTemplates(object):
    """Emits the statements of one binary's non-terminator instructions.

    Binds what it cannot spell as a literal into the module
    ``namespace``, and holds what a link record keeps of the emission
    beside the code: the ``bindings`` (where each ``_kN`` came from) and
    the ``shape_answers`` (what the shape tree said).
    """

    def __init__(self, native, namespace, kinds, inject):
        self.native = native
        self.kinds = kinds
        self.inject = inject
        self.bindings = []
        self.shape_answers = {}
        self.binder = Binder(namespace, self.bindings)
        #: The names a string answers besides ``length``.
        self.string_methods = namespace["_runtime"].string_methods
        # Per-region emission state (:meth:`enter_region`).
        self.cur_index = 0
        self.cur_offset = 0
        self.args_in_t = False
        self.known_i = None

    def enter_region(self):
        """Reset the per-region state: no marker stamped, no arguments read."""
        self.known_i = None
        self.args_in_t = False

    # -- operand text --------------------------------------------------------

    def val(self, loc):
        """Source text reading physical location ``loc``."""
        if loc < 0:
            return self.binder.lit(self.native.immediates[loc], BIND_IMMEDIATE, loc)
        if loc < NUM_REGS:
            return "_r%d" % loc
        return "_s%d" % (loc - NUM_REGS)

    def vals(self, locs):
        """Tuple-display text of the values in ``locs``."""
        return "(%s)" % "".join(self.val(loc) + ", " for loc in locs)

    # -- instruction emission ------------------------------------------------

    def _number_test(self, out, locs):
        """Run-time test that every ``locs`` holds a number.

        Returns the condition text — empty when it is known now — after
        appending the ``type()`` reads it needs, or None when some
        operand is known *not* to be a number (the helper arm alone).
        """
        unknown = []
        for loc in locs:
            kind = self.kinds.kind(loc)
            if kind in NUMERIC:
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
            kind = self.kinds.kind(loc)
            if kind == INT:
                continue
            if kind is not None and kind != NUMBER:
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

    def _string_name(self, name):
        """Whether ``name`` is a property a string answers."""
        return name == "length" or name in self.string_methods

    def _string_read(self, a, name):
        """Text of ``operations.get_property`` on a string ``a``."""
        if name == "length":
            return "len(%s)" % a
        return "_str_method(%s, _UNDEF)" % self.binder.lit(name)

    def _dense_index_test(self, array, index):
        """Test for the dense-array arm of ``getelem_v``/``setelem_v``:
        an exact ``JSArray`` and an int index inside its elements."""
        a, b = self.val(array), self.val(index)
        literal = self._literal_int(index)
        kind = self.kinds.kind(index)
        if literal is not None:
            if literal < 0:
                return None
            return "type(%s) is _JSArray and %d < len(%s.elements)" % (a, literal, a)
        if kind == INT:
            return "type(%s) is _JSArray and 0 <= %s < len(%s.elements)" % (a, b, a)
        if kind is not None and kind != NUMBER:
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
            bounds = (">=" if self.kinds.kind(srcs[0]) == INT else ">", ">")
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
        operands = [self.kinds.kind(loc) for loc in srcs]
        if operands == [INT, INT]:
            return "%s = %s" % (dest, _NORMALIZED_INT)
        if FLOAT in operands:
            return "%s = %s" % (dest, _NORMALIZED_FLOAT)
        return "%s = (%s) if type(_t) is int else _t if _t %% 1 else _normalize(_t)" % (
            dest, _NORMALIZED_INT
        )

    def _bail(self, out, instruction, reason, actual="None"):
        """Append the cold bail-branch body for a failed guard: stamp
        the progress marker (elided from the hot path) and raise
        through ``_bw``."""
        self._cold_mark(out)
        snap = instruction.snapshot
        out.append(
            " _bw(%s, %s, %r, %r, %s)"
            % (
                self.binder.bind(snap, BIND_SNAPSHOT, self.cur_index),
                self.vals(snap.locations),
                reason,
                instruction.op,
                actual,
            )
        )

    def emit_instruction(self, out, index, offset, instruction, slot_offset):
        """Append statements for one instruction of a region body.

        ``offset`` is the in-region offset used for the progress
        marker.  Hot-path markers are emitted lazily, and only before
        instructions that can raise out of a runtime helper
        (``_HELPER_RAISES``); guards stamp their marker inside their
        own cold bail branch instead (:meth:`_bail`), so passing
        speculation costs nothing.
        """
        op, srcs, extra, snap = instruction.op, instruction.srcs, instruction.extra, instruction.snapshot
        self.cur_index = index
        self.cur_offset = offset
        if op != "getarg":
            self.args_in_t = False
        if op in _HELPER_RAISES:
            self._mark(out)
        if self.inject and snap is not None and op in GUARD_OPS:
            out.append("if _fire(%d):" % index)
            if self.known_i != offset:
                out.append(" _i = %d" % offset)
            out.append(" _fw(%d, %s, %s)" % (index, self.vals(srcs), self.vals(snap.locations)))
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
            kind = self.kinds.kind(srcs[0])
            if kind == INT:
                out.append("%s = %s" % (d(), v(srcs[0])))
            elif kind == FLOAT:
                out.append("%s = _to_int32(%s)" % (d(), v(srcs[0])))
            else:
                out.append("_t = %s" % v(srcs[0]))
                out.append("%s = _t if type(_t) is int else _to_int32(_t)" % d())
        elif op == "todouble":
            if self.kinds.kind(srcs[0]) == FLOAT:
                out.append("%s = %s" % (d(), v(srcs[0])))
            else:
                out.append("%s = float(%s)" % (d(), v(srcs[0])))
        elif op == "concat":
            out.append("%s = %s + %s" % (d(), v(srcs[0]), v(srcs[1])))
        elif op == "compare":
            cmp_op, kind = extra
            py = COMPARE_PY.get(cmp_op)
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
            kind = self.kinds.kind(srcs[0])
            if extra in (Op.POS, Op.TONUM):
                # ToNumber of a number is the number, normalized: an int
                # is canonical already, a float as in :meth:`_normalized`.
                if kind == FLOAT:
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
            if self.kinds.kind(srcs[0]) == BOOL:
                out.append("%s = not %s" % (d(), v(srcs[0])))
            else:
                out.append("%s = not _to_boolean(%s)" % (d(), v(srcs[0])))
        elif op == "typeof":
            out.append("%s = _type_of(%s)" % (d(), v(srcs[0])))
        elif op == "unbox" and extra == MIRType.DOUBLE:
            kind = self.kinds.kind(srcs[0])
            if kind == FLOAT:
                out.append("%s = %s" % (d(), v(srcs[0])))
            elif kind in NUMERIC:
                out.append("%s = float(%s)" % (d(), v(srcs[0])))
            else:
                out.append("_t = %s" % v(srcs[0]))
                out.append("_x = type(_t)")
                out.append("if _x is not float and _x is not int:")
                self._bail(out, instruction, "type guard", "_t")
                out.append("%s = float(_t) if _x is int else _t" % d())
        elif op in ("unbox", "typebarrier"):
            if self.kinds.elides(instruction):
                # The value already passed this very check (the
                # ``typebarrier`` before an ``unbox``, typically): a move.
                out.append("%s = %s" % (d(), v(srcs[0])))
            else:
                out.append("_t = %s" % v(srcs[0]))
                test = _FAILS_TYPE.get(extra)
                if test is None:
                    test = "not _matches(_t, %s)" % binder.bind(extra, BIND_EXTRA, self.cur_index)
                out.append("if %s:" % test)
                reason = "type guard" if op == "unbox" else "type barrier"
                self._bail(out, instruction, reason, "_t")
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
            # the helper) reads straight off its shape, and a string
            # reads what ``operations.get_property`` would, skipping the
            # interpreter's receiver dispatch.  An unknown receiver is
            # tested for the one of the two the name suggests.
            a, name = v(srcs[0]), binder.lit(extra)
            kind = self.kinds.kind(srcs[0])
            if kind is None and self._string_name(extra):
                out.append(
                    "%s = %s if type(%s) is str else _get_property(%s, %s)"
                    % (d(), self._string_read(a, extra), a, a, name)
                )
            elif kind in (None, OBJECT):
                out.append(
                    "%s = %s.get(%s) if type(%s) is _JSObject else _get_property(%s, %s)"
                    % (d(), a, name, a, a, name)
                )
            elif kind == STR:
                out.append("%s = %s" % (d(), self._string_read(a, extra)))
            else:
                out.append("%s = _get_property(%s, %s)" % (d(), a, name))
        elif op == "setprop_v":
            a, name, value = v(srcs[0]), binder.lit(extra), v(srcs[1])
            if self.kinds.kind(srcs[0]) in (None, OBJECT):
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
            # A builtin runs its host function in line (exactly
            # ``call_value``'s fast path); every other callee goes to the
            # executor's ``call_entry``, which enters a steady guest
            # call's binary itself and hands the rest to the interpreter.
            this = v(srcs[1])
            arg_list = ", ".join(v(loc) for loc in srcs[2:])
            out.append("_t = %s" % v(srcs[0]))
            out.append(
                "%s = _t.fn(%s, [%s]) if type(_t) is _NativeFunction else _call(_t, %s, [%s])"
                % (d(), this, arg_list, this, arg_list)
            )
        elif op == "new":
            out.append(
                "%s = _construct(%s, [%s])"
                % (d(), v(srcs[0]), ", ".join(v(loc) for loc in srcs[1:]))
            )
        else:
            raise CompilerError("whole backend: unknown op %r" % op)
