"""Constant propagation and folding (paper §3.3).

The lattice is the textbook one the paper cites from Aho et al.:
⊥ (unvisited) < c (one constant) < ⊤ (varying), with the meet operator
of §3.3.  Deliberately *no* information is extracted from conditional
branches — the paper chose the simplest Kildall-style formulation over
Wegman–Zadeck conditional constant propagation to keep the JIT-time
overhead low, and so do we.

On its own this pass rarely helps (IonMonkey's GVN already removes most
redundancy — the paper measures a slight *slowdown* for constprop
alone); its power comes from parameter specialization turning argument
uses into constants, which then fold through arithmetic, comparisons,
``typeof``, type guards and pure builtins.

Folded forms:

* all arithmetic/bitwise/comparison operators on constants (evaluated
  through the very operator implementations the interpreter uses, so
  folding is exact);
* ``typeof`` of a constant *or* of any value whose MIR type is known;
* ``===``/``!==`` between values of provably different types;
* type guards (``unbox``/``typebarrier``) on constants of the right
  type — this is how specialization erases the paper's Figure 7 type
  guards;
* ``length`` of constant strings;
* calls to pure (``foldable``) native builtins with constant arguments.

No fold converts a baked-in array (:func:`_reads_elements`): ToPrimitive
joins its elements, which a later store may change under the same
reference — and the persistent cache keys it by length, not contents.
"""

import math

from repro.errors import ReproError
from repro.jsvm import operations
from repro.jsvm.bytecode import Op
from repro.jsvm.objects import JSArray
from repro.jsvm.values import NativeFunction, to_boolean, type_of
from repro.mir.instructions import (
    MBinaryArithD,
    MBinaryArithI,
    MBinaryV,
    MBitOpI,
    MCall,
    MCompare,
    MConcat,
    MConstant,
    MGetPropV,
    MNegD,
    MNegI,
    MNot,
    MPhi,
    MStringLength,
    MToDouble,
    MToInt32,
    MTypeBarrier,
    MTypeOf,
    MUnaryV,
    MUnbox,
)
from repro.mir.types import MIRType, value_matches_mirtype

#: Lattice elements: _BOTTOM (unvisited), (value,) tuples for constants,
#: _TOP (varying).  Constants are wrapped so that e.g. the constant
#: ``False`` is distinguishable from lattice states.
_BOTTOM = "bottom"
_TOP = "top"

_TYPEOF_BY_MIRTYPE = {
    MIRType.INT32: "number",
    MIRType.DOUBLE: "number",
    MIRType.BOOLEAN: "boolean",
    MIRType.STRING: "string",
    MIRType.OBJECT: "object",
    MIRType.ARRAY: "object",
    MIRType.NULL: "object",
    MIRType.FUNCTION: "function",
    MIRType.UNDEFINED: "undefined",
}

#: MIR types whose values can never be strictly equal to a value of a
#: different listed type (numbers excluded: int32 1 === double 1.0).
_DISJOINT_TYPES = frozenset(
    [
        MIRType.BOOLEAN,
        MIRType.STRING,
        MIRType.OBJECT,
        MIRType.ARRAY,
        MIRType.FUNCTION,
        MIRType.UNDEFINED,
        MIRType.NULL,
    ]
)


#: The instruction kinds :meth:`ConstantPropagation._evaluate` can fold;
#: everything else transfers straight to ⊤ without touching operands.
_EVALUATED_KINDS = (
    MBinaryArithI,
    MBinaryArithD,
    MBitOpI,
    MBinaryV,
    MCompare,
    MConcat,
    MUnaryV,
    MNegI,
    MNegD,
    MNot,
    MToDouble,
    MToInt32,
    MTypeOf,
    MUnbox,
    MTypeBarrier,
    MStringLength,
    MGetPropV,
    MCall,
)


#: Kinds that fold by their operand's class alone, converting nothing.
_CLASS_ONLY_KINDS = (MNot, MTypeOf, MUnbox, MTypeBarrier)


def _reads_elements(op, values):
    """Whether evaluating ``op`` over ``values`` reads an array's elements.

    Identity comparisons never convert; ``==``/``!=`` convert an array
    only against a number, string or boolean; every other operator
    converts each operand.
    """
    if not any(isinstance(value, JSArray) for value in values):
        return False
    if op in (Op.STRICTEQ, Op.STRICTNE):
        return False
    if op in (Op.EQ, Op.NE):
        return any(type_of(value) in ("number", "string", "boolean") for value in values)
    return True


def _meet(a, b):
    """The paper's meet: ⊥∧x = x, ⊤∧x = ⊤, c∧c = c, c0∧c1 = ⊤."""
    if a == _BOTTOM:
        return b
    if b == _BOTTOM:
        return a
    if a == _TOP or b == _TOP:
        return _TOP
    if _same_constant(a[0], b[0]):
        return a
    return _TOP


def _same_constant(x, y):
    if type(x) is not type(y):
        return False
    if type(x) is float:
        if math.isnan(x) and math.isnan(y):
            return True
        if x == 0.0 and y == 0.0:
            # +0.0 and -0.0 are distinct constants (1/x differs).
            return math.copysign(1.0, x) == math.copysign(1.0, y)
    try:
        return x is y or x == y
    except Exception:  # pragma: no cover - defensive
        return x is y


def _states_equal(a, b):
    """Lattice-state equality; NaN constants compare equal to
    themselves (raw tuple comparison would loop the fixpoint forever
    on any NaN-producing fold)."""
    if a is b:
        return True
    if isinstance(a, tuple) and isinstance(b, tuple):
        return _same_constant(a[0], b[0])
    return a == b


class ConstantPropagation(object):
    """Kildall-style fixpoint plus a rewrite phase."""

    def __init__(self, graph):
        self.graph = graph
        # Keyed by the definition objects (identity hash), never id():
        # object keys keep the definitions alive, so a deleted
        # instruction's address can never be reused by a new one that
        # would then inherit a stale lattice state.
        self.lattice = {}

    def state_of(self, definition):
        return self.lattice.get(definition, _BOTTOM)

    def constant_of(self, definition):
        """The lattice tuple ``(value,)`` if constant, else None."""
        state = self.state_of(definition)
        if state not in (_TOP, _BOTTOM):
            return state
        return None

    # -- fixpoint ---------------------------------------------------------------

    def analyze(self):
        instructions = list(self.graph.all_instructions())
        lattice = self.lattice
        changed = True
        while changed:
            changed = False
            for instruction in instructions:
                if instruction.block is None:
                    continue
                old = lattice.get(instruction, _BOTTOM)
                if old is _TOP:
                    # The transfer is monotone and operand states only
                    # climb the lattice, so ⊤ is absorbing: skip.
                    continue
                new_state = self._transfer(instruction)
                if not _states_equal(new_state, old):
                    lattice[instruction] = new_state
                    changed = True

    def _transfer(self, instruction):
        if isinstance(instruction, MConstant):
            return (instruction.value,)
        if isinstance(instruction, MPhi):
            state = _BOTTOM
            for operand in instruction.operands:
                state = _meet(state, self.state_of(operand))
            return state
        return self._evaluate(instruction)

    def _operand_constants(self, instruction):
        """Operand constant values, or a lattice marker.

        Returns ``_BOTTOM`` while any operand is still unvisited — the
        instruction must stay unknown rather than pessimizing to ⊤
        (evaluating ⊥ as ⊤ makes the transfer non-monotone, which can
        oscillate — and, with string concatenation, double a folded
        constant every fixpoint round).  Returns ``_TOP`` when any
        operand is varying.
        """
        values = []
        saw_bottom = False
        lattice_get = self.lattice.get
        for operand in instruction.operands:
            state = lattice_get(operand, _BOTTOM)
            if state is _BOTTOM:
                saw_bottom = True
            elif state is _TOP:
                return _TOP
            else:
                values.append(state[0])
        if saw_bottom:
            return _BOTTOM
        return values

    #: Folded strings larger than this stay ⊤ (real compilers bound the
    #: size of compile-time-materialized constants).
    MAX_FOLDED_STRING = 4096

    def _bounded(self, value):
        """Wrap a folded value, refusing oversized string constants."""
        if type(value) is str and len(value) > self.MAX_FOLDED_STRING:
            return _TOP
        return (value,)

    def _evaluate(self, instruction):
        """Abstractly evaluate one instruction; returns a lattice state.

        ``constants`` is a value list when every operand is a known
        constant, ``_BOTTOM`` while any operand is unvisited (the
        result stays unknown), or ``_TOP``.  Type-based folds (typeof,
        strict equality of disjoint types) apply even without constant
        operands.
        """
        if not isinstance(instruction, _EVALUATED_KINDS):
            # Loads, stores, allocations, guards-without-result and
            # control flow always evaluate to ⊤ — skip the operand walk.
            return _TOP
        constants = self._operand_constants(instruction)
        folded = constants not in (_TOP, _BOTTOM)
        if (
            folded
            and not isinstance(instruction, _CLASS_ONLY_KINDS)
            and _reads_elements(getattr(instruction, "op", None), constants)
        ):
            return _TOP

        try:
            if isinstance(instruction, (MBinaryArithI, MBinaryArithD, MBitOpI, MBinaryV)):
                if instruction.op == Op.IN:
                    return _TOP  # reads the mutable heap
                if folded:
                    return self._bounded(
                        operations.binary_op(
                            instruction.op, constants[0], constants[1]
                        )
                    )
                by_type = self._type_based_equality(instruction)
                if by_type != _TOP:
                    return by_type
                return constants
            if isinstance(instruction, MCompare):
                if folded:
                    return (operations.binary_op(instruction.op, constants[0], constants[1]),)
                by_type = self._type_based_equality(instruction)
                if by_type != _TOP:
                    return by_type
                return constants
            if isinstance(instruction, MConcat):
                if folded:
                    return self._bounded(constants[0] + constants[1])
                return constants
            if isinstance(instruction, (MUnaryV, MNegI, MNegD)):
                op = instruction.op if isinstance(instruction, MUnaryV) else Op.NEG
                if folded:
                    return (operations.unary_op(op, constants[0]),)
                return constants
            if isinstance(instruction, MNot):
                if folded:
                    return (not to_boolean(constants[0]),)
                return constants
            if isinstance(instruction, MToDouble):
                if folded:
                    return (float(constants[0]),)
                return constants
            if isinstance(instruction, MToInt32):
                if folded:
                    return (operations.to_int32(constants[0]),)
                return constants
            if isinstance(instruction, MTypeOf):
                if folded:
                    return (type_of(constants[0]),)
                operand_type = instruction.operands[0].type
                by_type = _TYPEOF_BY_MIRTYPE.get(operand_type)
                if operand_type != MIRType.VALUE and by_type is not None:
                    return (by_type,)
                return constants
            if isinstance(instruction, (MUnbox, MTypeBarrier)):
                if folded:
                    expected = (
                        instruction.type
                        if isinstance(instruction, MUnbox)
                        else instruction.expected
                    )
                    if value_matches_mirtype(constants[0], expected):
                        return (constants[0],)
                    if expected == MIRType.DOUBLE and value_matches_mirtype(
                        constants[0], MIRType.INT32
                    ):
                        # Numbers widen: an int32 passes a double guard.
                        return (constants[0],)
                    return _TOP
                return constants
            if isinstance(instruction, MStringLength):
                if folded:
                    return (len(constants[0]),)
                return constants
            if isinstance(instruction, MGetPropV):
                if folded and type(constants[0]) is str and instruction.name == "length":
                    return (len(constants[0]),)
                return _TOP
            if isinstance(instruction, MCall):
                return self._fold_native_call(instruction)
        except ReproError:
            return _TOP
        except (ZeroDivisionError, OverflowError, ValueError):
            return _TOP
        return _TOP

    def _type_based_equality(self, instruction):
        """Fold ``===``/``!==`` when operand types are provably disjoint."""
        if instruction.op not in (Op.STRICTEQ, Op.STRICTNE):
            return _TOP
        lhs_type = instruction.operands[0].type
        rhs_type = instruction.operands[1].type
        if lhs_type == rhs_type or MIRType.VALUE in (lhs_type, rhs_type):
            return _TOP
        numeric = (MIRType.INT32, MIRType.DOUBLE)
        if lhs_type in numeric and rhs_type in numeric:
            return _TOP
        if lhs_type in _DISJOINT_TYPES or rhs_type in _DISJOINT_TYPES:
            return (instruction.op == Op.STRICTNE,)
        return _TOP

    def _fold_native_call(self, instruction):
        callee_state = self.state_of(instruction.callee)
        if callee_state == _BOTTOM:
            return _BOTTOM
        if callee_state == _TOP:
            return _TOP
        callee = callee_state[0]
        if not isinstance(callee, NativeFunction) or not callee.foldable:
            return _TOP
        args = []
        for operand in instruction.call_args:
            state = self.state_of(operand)
            if state == _BOTTOM:
                return _BOTTOM
            if state == _TOP:
                return _TOP
            args.append(state[0])
        try:
            return self._bounded(callee.fn(None, args))
        except Exception:
            return _TOP

    # -- rewriting --------------------------------------------------------------------

    def rewrite(self):
        """Replace constant definitions with MConstant nodes.

        Returns the number of folded instructions — the quantity the
        paper's Figure 7(b) annotates ("the 14 instructions that we
        have been able to fold").
        """
        folded = 0
        for block in list(self.graph.blocks):
            for phi in list(block.phis):
                state = self.constant_of(phi)
                if state is None or self._breaks_int32_contract(phi, state):
                    continue
                replacement = MConstant(state[0])
                block.instructions.insert(0, replacement)
                replacement.block = block
                self.graph.assign_id(replacement)
                phi.replace_all_uses_with(replacement)
                block.remove_phi(phi)
                folded += 1
            for instruction in list(block.instructions):
                if isinstance(instruction, MConstant) or instruction.is_control:
                    continue
                state = self.constant_of(instruction)
                if state is None or self._breaks_int32_contract(instruction, state):
                    continue
                if instruction.effect != 0 and not self._is_foldable_call(instruction):
                    continue
                replacement = MConstant(state[0])
                block.insert_before(instruction, replacement)
                instruction.replace_all_uses_with(replacement)
                block.remove_instruction(instruction)
                folded += 1
        return folded

    @staticmethod
    def _breaks_int32_contract(definition, state):
        """True when materializing ``state`` would break INT32 typing.

        Specialized int32 arithmetic can *fold* out of int32 (overflow,
        negative zero, uint32 ``>>>``) — the lattice keeps the true JS
        value so double-typed consumers still fold through it — but the
        definition itself promises an INT32 result and bails at runtime
        instead.  Replacing it with a double constant would delete that
        bailout and feed a raw float into INT32-typed uses (the whole
        backend inlines ``bitop_i`` as a host ``&``), so the definition
        must survive for the guard to fire.
        """
        return definition.type == MIRType.INT32 and type(state[0]) is not int

    def _is_foldable_call(self, instruction):
        if not isinstance(instruction, MCall):
            return False
        state = self.constant_of(instruction.callee)
        if state is None:
            return False
        return isinstance(state[0], NativeFunction) and state[0].foldable


def run_constant_propagation(graph):
    """Run the full pass; returns the number of folded instructions."""
    cp = ConstantPropagation(graph)
    cp.analyze()
    return cp.rewrite()
