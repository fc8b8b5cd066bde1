"""The simulated native target: executes :class:`NativeCode`.

The executor is a small register machine — eight registers plus stack
slots — whose instruction semantics mirror the interpreter's exactly
(both defer to :mod:`repro.jsvm.operations`).  Each instruction is
billed cycles from the :class:`CostModel` price list; operands living in
stack slots cost extra, modelling memory traffic from spills.

Guards check the speculation they encode and raise :class:`Bailout`
on failure.  A bailout carries everything needed to rebuild the
interpreter frame from the guard's snapshot: the argument/local/stack
values read out of their native locations, the resume pc and mode, and
(for "after"-mode guards) the correct result the interpreter would
have produced — e.g. an int32 add that overflowed hands back the exact
double sum, so execution resumes as if the interpreter had done the
addition itself.
"""

import math

from repro.errors import CompilerError
from repro.jsvm import operations
from repro.jsvm.bytecode import Op
from repro.jsvm.interpreter import MAX_CALL_DEPTH
from repro.jsvm.objects import JSArray, JSObject
from repro.jsvm.values import (
    INT32_MAX,
    INT32_MIN,
    UNDEFINED,
    JSFunction,
    NativeFunction,
    normalize_number,
    to_boolean,
    type_of,
)
from repro.lir.native import FAULT_INJECTED, GUARD_OPS
from repro.lir.regalloc import NUM_REGS
from repro.mir.types import MIRType


class Bailout(Exception):
    """A guard failed; native execution must fall back to bytecode."""

    def __init__(self, snapshot, args, locals_, stack, pc, mode, reason, guard_op, actual=None):
        super().__init__("bailout at pc %d (%s)" % (pc, reason))
        self.snapshot = snapshot
        # Note: not named `args` — BaseException.args is a special
        # attribute that silently coerces assignments to tuples.
        self.frame_args = args
        self.frame_locals = locals_
        self.frame_stack = stack
        self.pc = pc
        self.mode = mode
        self.reason = reason
        self.guard_op = guard_op
        #: For "after"-mode guards: the correct value the interpreter
        #: would have produced (already appended to ``stack``).
        self.actual = actual
        #: Index of the faulting instruction in the native stream,
        #: annotated by the executor as the exception unwinds (the
        #: tracing layer reports it alongside the resume-point id).
        self.native_index = None


def _matches(value, mirtype):
    """Runtime type check for unbox/typebarrier guards."""
    if mirtype == MIRType.INT32:
        return type(value) is int
    if mirtype == MIRType.DOUBLE:
        return type(value) is float or type(value) is int
    if mirtype == MIRType.BOOLEAN:
        return type(value) is bool
    if mirtype == MIRType.STRING:
        return type(value) is str
    if mirtype == MIRType.ARRAY:
        return isinstance(value, JSArray)
    if mirtype == MIRType.OBJECT:
        return isinstance(value, JSObject) and not isinstance(value, JSArray)
    if mirtype == MIRType.FUNCTION:
        return isinstance(value, (JSFunction, NativeFunction))
    if mirtype == MIRType.VALUE:
        return True
    return False


def forced_recovery_value(op, extra, srcvals):
    """The exact recovery value a forced bailout must hand back.

    ``srcvals`` holds the guard's source values (already read out of
    their locations — the whole-function backend keeps values in
    Python locals, so callers pass them explicitly).  The result is
    computed exactly as the guard's own execution would have: the
    genuine result for a speculation that held, the genuine bailout
    value (overflowed double, ``-0.0``, the off-type value) for one
    that happened to fail on this very execution.
    """
    if op == "add_i" or op == "sub_i":
        a = srcvals[0]
        b = srcvals[1]
        result = a + b if op == "add_i" else a - b
        return float(result) if (result > INT32_MAX or result < INT32_MIN) else result
    if op == "mul_i":
        a = srcvals[0]
        b = srcvals[1]
        result = a * b
        if result > INT32_MAX or result < INT32_MIN:
            return float(result)
        if result == 0 and (a < 0 or b < 0):
            return -0.0
        return result
    if op == "neg_i":
        value = srcvals[0]
        if value == 0:
            return -0.0
        if value == INT32_MIN:
            return -float(value)
        return -value
    if op == "bitop_i":
        return operations.binary_op(extra, srcvals[0], srcvals[1])
    if op == "unbox" or op == "typebarrier":
        return srcvals[0]
    # checkoverrecursed / boundscheck / guardshape resume "at" the
    # faulting bytecode and re-execute it; no recovery value is needed.
    return None


def forced_bailout(executor, instruction, values):
    """Raise the fault-injected :class:`Bailout` for a guard.

    Called by the reference backend's decode loop when the armed
    :class:`~repro.engine.bailout.GuardFaultInjector` selects a guard,
    *instead of* executing the guard's arm.  Resuming the interpreter
    from the produced state is bit-identical to never having run the
    native code at all (see :func:`forced_recovery_value`).
    """
    actual = forced_recovery_value(
        instruction.op,
        instruction.extra,
        [values[loc] for loc in instruction.srcs],
    )
    executor._bail(values, instruction.snapshot, FAULT_INJECTED, instruction.op, actual)


class NativeExecutor(object):
    """Runs native code against the shared heap and runtime."""

    def __init__(self, interpreter):
        self.interpreter = interpreter
        self.runtime = interpreter.runtime
        #: Cycles burned by native execution (cumulative).
        self.cycles = 0
        #: Native instructions executed (cumulative).
        self.instructions_executed = 0
        #: Optional cycle-exact profiler (repro.telemetry.profiler),
        #: assigned by the engine.  When set, runs additionally record
        #: per-instruction execution counts and report their charges;
        #: None (the default) costs one local None-check per run.
        self.cycle_profiler = None
        #: Optional :class:`~repro.engine.bailout.GuardFaultInjector`
        #: ("chaos deopt"), assigned by the engine.  When set, every
        #: guard consults it before its own check and raises a
        #: fault-injected :class:`Bailout` when selected; None (the
        #: default) costs one hoisted None-check per run.
        self.fault_injector = None

    def call_entry(self):
        """What the emitted ``_call`` of this executor's modules is bound to."""
        return self.interpreter.call_value

    # -- frame reconstruction on bailout -------------------------------------------

    def _bail(self, values, snapshot, reason, op, actual=None):
        locations = snapshot.locations
        num_args = snapshot.num_args
        num_locals = snapshot.num_locals
        args = [values[loc] for loc in locations[:num_args]]
        locals_ = [values[loc] for loc in locations[num_args : num_args + num_locals]]
        stack = [values[loc] for loc in locations[num_args + num_locals :]]
        if snapshot.mode == "after":
            stack.append(actual)
        raise Bailout(
            snapshot, args, locals_, stack, snapshot.pc, snapshot.mode, reason, op, actual
        )

    # -- the dispatch loop ---------------------------------------------------------

    def run(self, native, function, this_value, args, entry="entry", osr_args=None, osr_locals=None):
        """Execute ``native``; returns the guest return value.

        Raises :class:`Bailout` when a guard fails — the engine turns
        that into interpreter resumption.
        """
        # Layout: [registers | spill slots | immediate pool]; negative
        # operand locations index the pool from the end (x86-style
        # instruction immediates, free of register pressure).
        values = [UNDEFINED] * (NUM_REGS + native.num_slots) + native.immediates
        instructions = native.instructions
        # Per-pc cycle prices, precomputed at assembly time: the
        # dispatch loop pays one list index instead of a dict lookup,
        # a checked-arith test and a spill scan per instruction.
        static_costs = native.cost_table()
        interpreter = self.interpreter
        runtime = self.runtime
        profiler = self.cycle_profiler
        injector = self.fault_injector
        instr_counts = (
            profiler.native_profile(native).instr_counts if profiler is not None else None
        )

        if entry == "osr":
            if native.osr_index is None:
                raise CompilerError("native code for %s has no OSR entry" % native.code.name)
            pc = native.osr_index
        else:
            pc = native.entry_index

        cycles = 0
        executed = 0
        try:
            while True:
                instruction = instructions[pc]
                op = instruction.op
                srcs = instruction.srcs
                dest = instruction.dest
                executed += 1
                cycles += static_costs[pc]
                # Counted before execution, so a faulting instruction
                # is included — matching the cycle charge above.
                if instr_counts is not None:
                    instr_counts[pc] += 1
                pc += 1

                if (
                    injector is not None
                    and instruction.snapshot is not None
                    and op in GUARD_OPS
                    and injector.should_fire(native, pc - 1)
                ):
                    forced_bailout(self, instruction, values)

                if op == "move":
                    values[dest] = values[srcs[0]]
                elif op == "const":
                    values[dest] = instruction.extra
                elif op == "getarg":
                    index = instruction.extra
                    if index == -1:
                        values[dest] = this_value
                    elif index < len(args):
                        values[dest] = args[index]
                    else:
                        values[dest] = UNDEFINED
                elif op == "osrvalue":
                    kind, index = instruction.extra
                    source = osr_args if kind == "arg" else osr_locals
                    values[dest] = source[index]
                elif op == "self":
                    values[dest] = function
                elif op == "add_i":
                    result = values[srcs[0]] + values[srcs[1]]
                    if (result > INT32_MAX or result < INT32_MIN) and instruction.snapshot is not None:
                        self._bail(values, instruction.snapshot, "overflow", op, float(result))
                    values[dest] = result
                elif op == "sub_i":
                    result = values[srcs[0]] - values[srcs[1]]
                    if (result > INT32_MAX or result < INT32_MIN) and instruction.snapshot is not None:
                        self._bail(values, instruction.snapshot, "overflow", op, float(result))
                    values[dest] = result
                elif op == "mul_i":
                    a = values[srcs[0]]
                    b = values[srcs[1]]
                    result = a * b
                    if instruction.snapshot is not None:
                        if result > INT32_MAX or result < INT32_MIN:
                            self._bail(values, instruction.snapshot, "overflow", op, float(result))
                        if result == 0 and (a < 0 or b < 0):
                            # JS: (-n) * 0 is -0, a double; the int path bails.
                            self._bail(values, instruction.snapshot, "negative zero", op, -0.0)
                    values[dest] = result
                elif op == "neg_i":
                    value = values[srcs[0]]
                    if instruction.snapshot is not None:
                        if value == 0:
                            self._bail(values, instruction.snapshot, "negative zero", op, -0.0)
                        if value == INT32_MIN:
                            self._bail(values, instruction.snapshot, "overflow", op, -float(value))
                    values[dest] = -value
                elif op in ("add_d", "sub_d", "mul_d", "div_d", "mod_d"):
                    values[dest] = _DOUBLE_OPS[op](values[srcs[0]], values[srcs[1]])
                elif op == "neg_d":
                    values[dest] = -values[srcs[0]]
                elif op == "bitop_i":
                    result = operations.binary_op(instruction.extra, values[srcs[0]], values[srcs[1]])
                    if instruction.snapshot is not None and type(result) is not int:
                        # ">>>" producing a value beyond int32.
                        self._bail(values, instruction.snapshot, "uint32 overflow", op, result)
                    values[dest] = result
                elif op == "toint32":
                    values[dest] = operations.to_int32(values[srcs[0]])
                elif op == "todouble":
                    values[dest] = float(values[srcs[0]])
                elif op == "concat":
                    values[dest] = values[srcs[0]] + values[srcs[1]]
                elif op == "compare":
                    cmp_op, kind = instruction.extra
                    values[dest] = _compare(cmp_op, kind, values[srcs[0]], values[srcs[1]])
                elif op == "binary_v":
                    values[dest] = operations.binary_op(
                        instruction.extra, values[srcs[0]], values[srcs[1]]
                    )
                elif op == "unary_v":
                    values[dest] = operations.unary_op(instruction.extra, values[srcs[0]])
                elif op == "not":
                    values[dest] = not to_boolean(values[srcs[0]])
                elif op == "typeof":
                    values[dest] = type_of(values[srcs[0]])
                elif op == "unbox":
                    value = values[srcs[0]]
                    expected = instruction.extra
                    if not _matches(value, expected):
                        self._bail(values, instruction.snapshot, "type guard", op, value)
                    if expected == MIRType.DOUBLE and type(value) is int:
                        value = float(value)
                    values[dest] = value
                elif op == "typebarrier":
                    value = values[srcs[0]]
                    if not _matches(value, instruction.extra):
                        self._bail(values, instruction.snapshot, "type barrier", op, value)
                    values[dest] = value
                elif op == "checkoverrecursed":
                    if interpreter.call_depth >= MAX_CALL_DEPTH:
                        self._bail(values, instruction.snapshot, "over-recursed", op)
                elif op == "arraylength":
                    values[dest] = len(values[srcs[0]].elements)
                elif op == "stringlength":
                    values[dest] = len(values[srcs[0]])
                elif op == "boundscheck":
                    index = values[srcs[0]]
                    length = values[srcs[1]]
                    if index < 0 or index >= length:
                        self._bail(values, instruction.snapshot, "bounds check", op)
                elif op == "guardshape":
                    shape_id = values[srcs[0]].shape.shape_id
                    if shape_id not in instruction.extra:
                        # The observed shape id rides along as the
                        # bailout's ``actual``: "at"-mode resume never
                        # pushes it on the guest stack, but the engine
                        # reads it to decide whether a retrain would
                        # change the binary (docs/DEOPTLESS.md).
                        self._bail(
                            values, instruction.snapshot, "shape guard", op, shape_id
                        )
                elif op == "loadelement":
                    values[dest] = values[srcs[0]].elements[values[srcs[1]]]
                elif op == "storeelement":
                    values[srcs[0]].elements[values[srcs[1]]] = values[srcs[2]]
                elif op == "getelem_v":
                    values[dest] = operations.get_element(
                        values[srcs[0]], values[srcs[1]], runtime
                    )
                elif op == "setelem_v":
                    operations.set_element(values[srcs[0]], values[srcs[1]], values[srcs[2]])
                elif op == "loadprop":
                    values[dest] = values[srcs[0]].get(instruction.extra)
                elif op == "storeprop":
                    values[srcs[0]].set(instruction.extra, values[srcs[1]])
                elif op == "getprop_v":
                    values[dest] = interpreter.get_property(values[srcs[0]], instruction.extra)
                elif op == "setprop_v":
                    operations.set_property(values[srcs[0]], instruction.extra, values[srcs[1]])
                elif op == "loadglobal":
                    values[dest] = runtime.get_global(instruction.extra)
                elif op == "storeglobal":
                    runtime.set_global(instruction.extra, values[srcs[0]])
                elif op == "newarray":
                    values[dest] = JSArray(
                        runtime.shapes.root, [values[loc] for loc in srcs]
                    )
                elif op == "newobject":
                    obj = JSObject(runtime.shapes.root)
                    for key, loc in zip(instruction.extra, srcs):
                        obj.set(key, values[loc])
                    values[dest] = obj
                elif op == "lambda":
                    values[dest] = JSFunction(instruction.extra, ())
                elif op == "call":
                    callee = values[srcs[0]]
                    call_this = values[srcs[1]]
                    call_args = [values[loc] for loc in srcs[2:]]
                    values[dest] = interpreter.call_value(callee, call_this, call_args)
                elif op == "new":
                    callee = values[srcs[0]]
                    call_args = [values[loc] for loc in srcs[1:]]
                    values[dest] = interpreter.construct(callee, call_args)
                elif op == "goto":
                    pc = instruction.targets[0]
                elif op == "test":
                    if to_boolean(values[srcs[0]]):
                        pc = instruction.targets[0]
                    else:
                        pc = instruction.targets[1]
                elif op == "return":
                    return values[srcs[0]]
                else:
                    raise CompilerError("native executor: unknown op %r" % op)
        except Bailout as bail:
            # `pc` already advanced past the faulting instruction.
            if bail.native_index is None:
                bail.native_index = pc - 1
            raise
        finally:
            self.cycles += cycles
            self.instructions_executed += executed
            if profiler is not None:
                profiler.charge_native(cycles, executed)


def _div_d(a, b):
    return operations.js_div(a, b)


def _mod_d(a, b):
    return operations.js_mod(a, b)


_DOUBLE_OPS = {
    "add_d": lambda a, b: normalize_number(a + b),
    "sub_d": lambda a, b: normalize_number(a - b),
    "mul_d": lambda a, b: normalize_number(a * b),
    "div_d": _div_d,
    "mod_d": _mod_d,
}


def _compare(op, kind, a, b):
    """Specialized comparison; mirrors operations.binary_op exactly."""
    if kind == "d":
        if math.isnan(a) or math.isnan(b):
            return False if op not in (Op.NE, Op.STRICTNE) else True
    if op == Op.LT:
        return a < b
    if op == Op.LE:
        return a <= b
    if op == Op.GT:
        return a > b
    if op == Op.GE:
        return a >= b
    if op in (Op.EQ, Op.STRICTEQ):
        return a == b
    if op in (Op.NE, Op.STRICTNE):
        return a != b
    raise CompilerError("bad compare op %r" % op)
