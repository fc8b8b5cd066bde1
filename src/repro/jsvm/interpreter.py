"""The bytecode interpreter (SpiderMonkey analogue).

The interpreter is the VM's first tier.  It exposes three hooks that
the JIT engine (:mod:`repro.engine.runtime_engine`) plugs into,
mirroring the interplay of Figure 5 in the paper:

* ``engine.try_native_call(function, this, args)`` — consulted on every
  guest call; the engine counts the call, may compile the function, may
  execute cached native code, and may finish a bailed-out execution.
* ``engine.on_backedge(frame, target_pc)`` — consulted on every loop
  back edge; the engine may trigger on-stack replacement (OSR) and
  either finish the function natively or hand back a resume state.
* ``profiler.record_call(function, args)`` — telemetry for the paper's
  Section 2 histograms.

Bailouts work in the other direction: the native executor rebuilds the
interpreter frame (arguments, locals, expression stack, pc) from the
guard's resume point and the interpreter continues from there.
"""

import sys
import weakref

from repro.errors import CompilerError, JSRangeError, JSTypeError, OwnerDropped
from repro.jsvm import operations
from repro.jsvm.bytecode import Cell, Op
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.objects import JSArray, JSObject
from repro.jsvm.runtime import Runtime
from repro.jsvm.values import (
    UNDEFINED,
    JSFunction,
    NativeFunction,
    to_boolean,
    to_js_string,
)

#: Guest recursion limit (the interpreter's ``checkoverrecursed``).
MAX_CALL_DEPTH = 200

# Each guest frame costs several Python frames (interpreter dispatch,
# engine hooks, the native executor); make sure the *guest* limit is
# the one that fires.
if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)


class Frame(object):
    """One activation record of a guest function."""

    __slots__ = ("code", "function", "this_value", "args", "locals", "cells", "closure")

    def __init__(self, code, function=None, this_value=UNDEFINED, args=None, closure=()):
        self.code = code
        self.function = function
        self.this_value = this_value
        args = list(args) if args is not None else []
        # Missing arguments read as undefined; extras are dropped, as in JS.
        while len(args) < code.num_params:
            args.append(UNDEFINED)
        del args[code.num_params :]
        self.args = args
        self.locals = [UNDEFINED] * code.num_locals
        self.cells = [Cell() for _ in code.cell_names]
        self.closure = closure
        # Captured parameters live in their cell, seeded from the call.
        for index, name in enumerate(code.cell_names):
            if name in code.params:
                self.cells[index].value = self.args[code.params.index(name)]

    def cell_for(self, name):
        """Find the cell for ``name`` in own cells or the closure."""
        code = self.code
        if name in code.cell_names:
            return self.cells[code.cell_names.index(name)]
        if name in code.free_names:
            return self.closure[code.free_names.index(name)]
        raise CompilerError("no cell for %r in %s" % (name, code.name))


class Interpreter(object):
    """Executes bytecode; the VM's always-available tier."""

    def __init__(
        self, runtime=None, engine=None, profiler=None, tracer=None, cycle_profiler=None
    ):
        self.runtime = runtime if runtime is not None else Runtime()
        self.runtime.adopted_by(self)
        #: Weak reference to the engine that owns this interpreter, or
        #: None for an engine-less (reference) interpreter.  The engine
        #: holds the interpreter, never the reverse, so a finished
        #: engine is freed by reference count; the hooks dereference it
        #: per use and a dead one is :class:`OwnerDropped`.
        self._engine = None if engine is None else weakref.ref(engine)
        self.profiler = profiler
        #: Optional JIT event tracer (see repro.telemetry.tracing); the
        #: engine assigns its own tracer here so the ``interp`` channel
        #: can record guest calls.  None means zero tracing overhead.
        self.tracer = tracer
        #: Optional cycle-exact profiler (repro.telemetry.profiler).
        #: The interpreter maintains its shadow call stack on guest
        #: call boundaries and charges dispatched ops to the current
        #: node.  None (the default) means zero overhead: the hot
        #: dispatch loop is selected once per activation.
        self.cycle_profiler = cycle_profiler
        #: The one decision ``call_function`` makes per call, taken
        #: here: with an engine and no call hook (all four are fixed at
        #: construction) a guest call goes straight to the engine.
        self._plain_calls = (
            engine is not None
            and profiler is None
            and tracer is None
            and cycle_profiler is None
        )
        self.call_depth = 0
        #: Count of bytecode instructions dispatched (for the cost model).
        self.ops_executed = 0
        #: Count of inline-cache transitions (a property site learning
        #: a new receiver shape, including the tip into megamorphic).
        #: ``EngineStats`` reads it live, like ``ops_executed``.
        self.ic_transitions = 0

    # -- entry points ---------------------------------------------------------

    def run_source(self, source):
        """Compile and run a whole script; returns the printed output list."""
        code = compile_source(source, self.runtime.code_ids)
        self.run_code(code)
        return self.runtime.printed

    def run_code(self, code):
        frame = Frame(code)
        cycle_profiler = self.cycle_profiler
        if cycle_profiler is None:
            return self.execute(frame)
        # Top-level scripts get a shadow-stack frame too, so their ops
        # (and any native OSR cycles) attribute to ``<toplevel>``.
        cycle_profiler.enter_call(code)
        try:
            return self.execute(frame)
        finally:
            cycle_profiler.exit_call()

    # -- calls -----------------------------------------------------------------

    def call_value(self, callee, this_value, args):
        """Call any callable guest value."""
        kind = type(callee)
        if kind is NativeFunction:
            # Exact-type fast path: invoke the host callable directly
            # (NativeFunction.__call__ is just this delegation).
            return callee.fn(this_value, args)
        if kind is JSFunction or isinstance(callee, JSFunction):
            return self.call_function(callee, this_value, args)
        if isinstance(callee, NativeFunction):
            return callee(this_value, args)
        raise JSTypeError("%s is not a function" % to_js_string(callee))

    def call_function(self, function, this_value, args):
        """Call a guest function, giving the JIT first refusal."""
        if not self._plain_calls:
            return self._call_function_hooked(function, this_value, args)
        engine = self._engine()
        if engine is None:
            raise OwnerDropped("Engine", "Interpreter")
        handled, result = engine.try_native_call(function, this_value, args)
        if handled:
            return result
        return self.execute(self.build_frame(function, this_value, args))

    def _call_function_hooked(self, function, this_value, args):
        """``call_function`` with a profiler, tracer or no engine attached."""
        if self.profiler is not None:
            self.profiler.record_call(function, args)
        tracer = self.tracer
        if tracer is not None and tracer.wants("interp"):
            tracer.emit(
                "interp",
                "call",
                fn=function.code.name,
                code_id=function.code.code_id,
                nargs=len(args),
            )
        cycle_profiler = self.cycle_profiler
        if cycle_profiler is not None:
            # The shadow-stack frame spans the whole activation — native
            # execution, bailout-resumed interpretation and OSR included —
            # so every cycle of this call lands on the callee's node.
            cycle_profiler.enter_call(function.code)
        try:
            if self._engine is not None:
                engine = self._engine()
                if engine is None:
                    raise OwnerDropped("Engine", "Interpreter")
                handled, result = engine.try_native_call(function, this_value, args)
                if handled:
                    return result
            frame = self.build_frame(function, this_value, args)
            return self.execute(frame)
        finally:
            if cycle_profiler is not None:
                cycle_profiler.exit_call()

    def build_frame(self, function, this_value, args):
        code = function.code
        closure = ()
        if code.has_frees:
            closure = function.scope
            if closure is None or len(closure) != len(code.free_names):
                raise CompilerError("closure mismatch for %s" % code.name)
        return Frame(code, function, this_value, args, closure)

    def construct(self, callee, args):
        """Implement ``new callee(...args)``."""
        if isinstance(callee, NativeFunction):
            # Host constructors (Array, String) ignore `this`.
            return callee(UNDEFINED, args)
        if not isinstance(callee, JSFunction):
            raise JSTypeError("%s is not a constructor" % to_js_string(callee))
        instance = JSObject(self.runtime.shapes.root)
        result = self.call_function(callee, instance, args)
        if isinstance(result, JSObject):
            return result
        return instance

    # -- the dispatch loop ---------------------------------------------------

    def execute(self, frame, pc=0, stack=None):
        """Run ``frame`` from ``pc`` with an optional initial stack.

        The non-default ``pc``/``stack`` form is used when resuming
        after a JIT bailout: the native executor rebuilt the frame and
        tells us where interpretation picks up.
        """
        self.call_depth += 1
        if self.call_depth > MAX_CALL_DEPTH:
            self.call_depth -= 1
            raise JSRangeError("too much recursion")
        try:
            return self._run(frame, pc, stack if stack is not None else [])
        finally:
            self.call_depth -= 1

    def _run(self, frame, pc, stack):
        code = frame.code
        table = code.threaded
        if table is None:
            table = build_threaded(code)
            code.threaded = table
        ctx = _DispatchContext(self, frame, stack, code.feedback)
        if self.cycle_profiler is not None:
            return self._run_profiled(ctx, table, pc)
        # Threaded dispatch: each step is one table index and one call
        # of a pre-bound handler — no opcode compare chain, no operand
        # table indirection (arguments are pre-resolved at table-build
        # time: constants and names are fetched once, not per pass).
        # The live ``ops_executed`` increment stays here so the trace
        # clock ticks per bytecode op exactly as before.
        while True:
            handler, arg = table[pc]
            self.ops_executed += 1
            pc = handler(ctx, pc + 1, arg)
            if pc < 0:
                return ctx.return_value

    def _run_profiled(self, ctx, table, pc):
        """The dispatch loop with per-op profiler attribution.

        Identical to the hot loop in :meth:`_run` plus one counter
        increment on the profiler's current shadow-stack node.  The
        node is resolved once per activation: nested calls inside a
        handler push and pop the shadow stack symmetrically, so
        ``current`` is this activation's node again by the time the
        handler returns.
        """
        node = self.cycle_profiler.current
        while True:
            handler, arg = table[pc]
            self.ops_executed += 1
            node.interp_ops += 1
            pc = handler(ctx, pc + 1, arg)
            if pc < 0:
                return ctx.return_value

    def _backedge(self, frame, target, stack):
        """Give the engine an OSR opportunity on a loop back edge.

        Top-level scripts (``frame.function is None``) participate too:
        IonMonkey compiles hot global code the same way.
        """
        if self._engine is None:
            return None
        if stack:
            # Loop headers always have an empty expression stack in the
            # bytecode our compiler emits; OSR relies on this.
            return None
        engine = self._engine()
        if engine is None:
            raise OwnerDropped("Engine", "Interpreter")
        return engine.on_backedge(self, frame, target)

    # -- helpers ------------------------------------------------------------------

    def make_closure(self, code, frame):
        """Instantiate a function value, capturing the needed cells."""
        closure = ()
        if code.has_frees:
            closure = tuple(frame.cell_for(name) for name in code.free_names)
        return JSFunction(code, closure)

    def get_property(self, value, name):
        """Property read including function statics (String.fromCharCode)."""
        if type(value) is JSObject:
            # Hot path: a plain object reads straight off its shape —
            # exactly what operations.get_property would do after its
            # string/array/function checks.
            return value.get(name)
        if isinstance(value, NativeFunction):
            holder = self.runtime.function_statics.get(value)
            if holder is not None:
                return holder.get(name)
            return UNDEFINED
        if isinstance(value, JSFunction):
            if name == "name":
                return value.name or ""
            if name == "length":
                return value.code.num_params
            return UNDEFINED
        return operations.get_property(value, name, self.runtime)


_BINARY_DISPATCH = frozenset(
    [
        Op.DIV, Op.MOD, Op.BITAND, Op.BITOR, Op.BITXOR,
        Op.SHL, Op.SHR, Op.USHR,
        Op.EQ, Op.NE, Op.STRICTEQ, Op.STRICTNE,
        Op.LT, Op.LE, Op.GT, Op.GE, Op.IN,
    ]
)

_UNARY_DISPATCH = frozenset([Op.NEG, Op.POS, Op.NOT, Op.BITNOT, Op.TYPEOF, Op.TONUM])


# -- threaded dispatch ---------------------------------------------------------
#
# Each CodeObject lazily gets a handler table parallel to its
# instruction list: entry ``pc`` is ``(handler, arg)`` where ``arg``
# has already been resolved as far as possible (the constant itself for
# CONST/CLOSURE, the name string for global/property ops, the opcode
# for the generic binary/unary handlers).  A handler is called as
# ``handler(ctx, pc, arg)`` with ``pc`` already advanced past the
# instruction — matching the reference loop, whose feedback sites key
# on ``pc - 1`` — and returns the next pc, negative meaning "frame
# done, result in ``ctx.return_value``".  Every handler body is a
# transliteration of the corresponding if/elif arm of the historical
# decode loop; semantics (feedback recording, backedge/OSR handling,
# the live ops_executed clock) are unchanged.


class _DispatchContext(object):
    """Per-activation state threaded through bytecode handlers."""

    __slots__ = ("interp", "frame", "stack", "feedback", "return_value")

    def __init__(self, interp, frame, stack, feedback):
        self.interp = interp
        self.frame = frame
        self.stack = stack
        self.feedback = feedback
        self.return_value = None


def _op_const(ctx, pc, value):
    ctx.stack.append(value)
    return pc


def _op_getlocal(ctx, pc, arg):
    ctx.stack.append(ctx.frame.locals[arg])
    return pc


def _op_setlocal(ctx, pc, arg):
    ctx.frame.locals[arg] = ctx.stack.pop()
    return pc


def _op_getarg(ctx, pc, arg):
    ctx.stack.append(ctx.frame.args[arg])
    return pc


def _op_setarg(ctx, pc, arg):
    ctx.frame.args[arg] = ctx.stack.pop()
    return pc


def _op_getglobal(ctx, pc, name):
    value = ctx.interp.runtime.get_global(name)
    feedback = ctx.feedback
    if feedback is not None:
        feedback.record_site(pc - 1, value)
    ctx.stack.append(value)
    return pc


def _op_setglobal(ctx, pc, name):
    ctx.interp.runtime.set_global(name, ctx.stack.pop())
    return pc


def _op_getcell(ctx, pc, arg):
    ctx.stack.append(ctx.frame.cells[arg].value)
    return pc


def _op_setcell(ctx, pc, arg):
    ctx.frame.cells[arg].value = ctx.stack.pop()
    return pc


def _op_getfree(ctx, pc, arg):
    ctx.stack.append(ctx.frame.closure[arg].value)
    return pc


def _op_setfree(ctx, pc, arg):
    ctx.frame.closure[arg].value = ctx.stack.pop()
    return pc


def _op_getthis(ctx, pc, arg):
    ctx.stack.append(ctx.frame.this_value)
    return pc


def _op_undef(ctx, pc, arg):
    ctx.stack.append(UNDEFINED)
    return pc


def _op_pop(ctx, pc, arg):
    ctx.stack.pop()
    return pc


def _op_dup(ctx, pc, arg):
    stack = ctx.stack
    stack.append(stack[-1])
    return pc


def _op_swap(ctx, pc, arg):
    stack = ctx.stack
    stack[-1], stack[-2] = stack[-2], stack[-1]
    return pc


def _take_backedge(ctx, pc, target):
    """Shared backward-jump tail for JUMP/IFFALSE/IFTRUE handlers.

    Gives the engine its OSR opportunity; on native completion stores
    the return value and signals frame exit, on a resume-state handoff
    rebinds the activation's stack and continues at the resume pc.
    """
    if target < pc - 1:
        outcome = ctx.interp._backedge(ctx.frame, target, ctx.stack)
        if outcome is not None:
            kind, payload = outcome
            if kind == "return":
                ctx.return_value = payload
                return -1
            pc, stack = payload
            ctx.stack = stack
            return pc
    return target


def _op_jump(ctx, pc, target):
    return _take_backedge(ctx, pc, target)


def _op_iffalse(ctx, pc, target):
    if not to_boolean(ctx.stack.pop()):
        return _take_backedge(ctx, pc, target)
    return pc


def _op_iftrue(ctx, pc, target):
    if to_boolean(ctx.stack.pop()):
        return _take_backedge(ctx, pc, target)
    return pc


def _op_add(ctx, pc, arg):
    stack = ctx.stack
    right = stack.pop()
    stack[-1] = operations.js_add(stack[-1], right)
    return pc


def _op_sub(ctx, pc, arg):
    stack = ctx.stack
    right = stack.pop()
    stack[-1] = operations.js_sub(stack[-1], right)
    return pc


def _op_mul(ctx, pc, arg):
    stack = ctx.stack
    right = stack.pop()
    stack[-1] = operations.js_mul(stack[-1], right)
    return pc


def _op_binary(ctx, pc, op):
    stack = ctx.stack
    right = stack.pop()
    stack[-1] = operations.binary_op(op, stack[-1], right)
    return pc


def _op_unary(ctx, pc, op):
    stack = ctx.stack
    stack[-1] = operations.unary_op(op, stack[-1])
    return pc


def _op_newarray(ctx, pc, count):
    stack = ctx.stack
    if count:
        elements = stack[-count:]
        del stack[-count:]
    else:
        elements = []
    stack.append(JSArray(ctx.interp.runtime.shapes.root, elements))
    return pc


def _op_newobject(ctx, pc, count):
    stack = ctx.stack
    obj = JSObject(ctx.interp.runtime.shapes.root)
    if count:
        flat = stack[-2 * count :]
        del stack[-2 * count :]
        for index in range(count):
            obj.set(to_js_string(flat[2 * index]), flat[2 * index + 1])
    stack.append(obj)
    return pc


def _record_ic(ctx, site, feedback, receiver, name):
    """Feed ``receiver``'s shape into the property site's inline cache.

    Counts transitions on the interpreter (``EngineStats`` reads the
    count live) and emits the matching ``ic.*`` trace event when the
    ``ic`` channel is subscribed.
    """
    shape_id = receiver.shape.shape_id
    outcome = feedback.record_shape(site, shape_id)
    interp = ctx.interp
    if outcome == "transition":
        interp.ic_transitions += 1
    tracer = interp.tracer
    if tracer is not None and tracer.wants("ic"):
        tracer.emit(
            "ic",
            outcome,
            fn=ctx.frame.code.name,
            code_id=ctx.frame.code.code_id,
            pc=site,
            name=name,
            shape=shape_id,
            state=feedback.ic_state(site),
        )


def _op_getprop(ctx, pc, name):
    stack = ctx.stack
    receiver = stack.pop()
    value = ctx.interp.get_property(receiver, name)
    feedback = ctx.feedback
    if feedback is not None:
        feedback.record_site(pc - 1, value)
        feedback.record_recv(pc - 1, receiver)
        if type(receiver) is JSObject:
            _record_ic(ctx, pc - 1, feedback, receiver, name)
    stack.append(value)
    return pc


def _op_setprop(ctx, pc, name):
    stack = ctx.stack
    value = stack.pop()
    target = stack.pop()
    feedback = ctx.feedback
    if feedback is not None:
        # Record before the store: the store itself may transition the
        # target's shape, and the compiled guard tests the *pre-store*
        # shape (the storeprop fast path performs the transition).
        feedback.record_recv(pc - 1, target)
        if type(target) is JSObject:
            _record_ic(ctx, pc - 1, feedback, target, name)
    operations.set_property(target, name, value)
    stack.append(value)
    return pc


def _op_getelem(ctx, pc, arg):
    stack = ctx.stack
    index = stack.pop()
    value = operations.get_element(stack[-1], index, ctx.interp.runtime)
    feedback = ctx.feedback
    if feedback is not None:
        feedback.record_site(pc - 1, value)
        feedback.record_recv(pc - 1, stack[-1])
    stack[-1] = value
    return pc


def _op_setelem(ctx, pc, arg):
    stack = ctx.stack
    value = stack.pop()
    index = stack.pop()
    target = stack.pop()
    feedback = ctx.feedback
    if feedback is not None:
        feedback.record_recv(pc - 1, target)
    operations.set_element(target, index, value)
    stack.append(value)
    return pc


def _op_delprop(ctx, pc, name):
    stack = ctx.stack
    target = stack.pop()
    if isinstance(target, JSObject):
        target.delete(name)
    stack.append(True)
    return pc


def _op_self(ctx, pc, arg):
    ctx.stack.append(ctx.frame.function)
    return pc


def _op_closure(ctx, pc, code):
    ctx.stack.append(ctx.interp.make_closure(code, ctx.frame))
    return pc


def _op_call(ctx, pc, count):
    stack = ctx.stack
    if count:
        args = stack[-count:]
        del stack[-count:]
    else:
        args = []
    this_value = stack.pop()
    callee = stack.pop()
    interp = ctx.interp
    if type(callee) is JSFunction:
        # Guest-to-guest is the common call: skip call_value's dispatch.
        value = interp.call_function(callee, this_value, args)
    else:
        value = interp.call_value(callee, this_value, args)
    feedback = ctx.feedback
    if feedback is not None:
        feedback.record_site(pc - 1, value)
    stack.append(value)
    return pc


def _op_new(ctx, pc, count):
    stack = ctx.stack
    if count:
        args = stack[-count:]
        del stack[-count:]
    else:
        args = []
    callee = stack.pop()
    stack.append(ctx.interp.construct(callee, args))
    return pc


def _op_return(ctx, pc, arg):
    ctx.return_value = ctx.stack.pop()
    return -1


def _op_return_undef(ctx, pc, arg):
    ctx.return_value = UNDEFINED
    return -1


def _op_unknown(ctx, pc, op):
    raise CompilerError("unknown opcode %r" % op)


#: opcode -> (handler, arg resolution); "raw" passes ``instr.arg``
#: through, "const" pre-fetches ``constants[arg]``, "name" pre-fetches
#: ``names[arg]``, "op" passes the opcode itself (generic handlers).
_HANDLERS = {
    Op.CONST: (_op_const, "const"),
    Op.GETLOCAL: (_op_getlocal, "raw"),
    Op.SETLOCAL: (_op_setlocal, "raw"),
    Op.GETARG: (_op_getarg, "raw"),
    Op.SETARG: (_op_setarg, "raw"),
    Op.GETGLOBAL: (_op_getglobal, "name"),
    Op.SETGLOBAL: (_op_setglobal, "name"),
    Op.GETCELL: (_op_getcell, "raw"),
    Op.SETCELL: (_op_setcell, "raw"),
    Op.GETFREE: (_op_getfree, "raw"),
    Op.SETFREE: (_op_setfree, "raw"),
    Op.GETTHIS: (_op_getthis, "raw"),
    Op.UNDEF: (_op_undef, "raw"),
    Op.POP: (_op_pop, "raw"),
    Op.DUP: (_op_dup, "raw"),
    Op.SWAP: (_op_swap, "raw"),
    Op.JUMP: (_op_jump, "raw"),
    Op.IFFALSE: (_op_iffalse, "raw"),
    Op.IFTRUE: (_op_iftrue, "raw"),
    Op.ADD: (_op_add, "raw"),
    Op.SUB: (_op_sub, "raw"),
    Op.MUL: (_op_mul, "raw"),
    Op.NEWARRAY: (_op_newarray, "raw"),
    Op.NEWOBJECT: (_op_newobject, "raw"),
    Op.GETPROP: (_op_getprop, "name"),
    Op.SETPROP: (_op_setprop, "name"),
    Op.GETELEM: (_op_getelem, "raw"),
    Op.SETELEM: (_op_setelem, "raw"),
    Op.DELPROP: (_op_delprop, "name"),
    Op.SELF: (_op_self, "raw"),
    Op.CLOSURE: (_op_closure, "const"),
    Op.CALL: (_op_call, "raw"),
    Op.NEW: (_op_new, "raw"),
    Op.RETURN: (_op_return, "raw"),
    Op.RETURN_UNDEF: (_op_return_undef, "raw"),
}
for _op in _BINARY_DISPATCH:
    _HANDLERS[_op] = (_op_binary, "op")
for _op in _UNARY_DISPATCH:
    _HANDLERS[_op] = (_op_unary, "op")
del _op


def build_threaded(code):
    """Build the threaded handler table for ``code``.

    One ``(handler, resolved_arg)`` pair per instruction.  Cached on
    ``code.threaded`` by the dispatch loop; any pass that rewrites the
    instruction list (loop rotation) resets that cache.  Unknown
    opcodes get a raising handler so malformed streams still fail at
    execution time, exactly like the decode loop they replace.
    """
    constants = code.constants
    names = code.names
    table = []
    for instr in code.instructions:
        entry = _HANDLERS.get(instr.op)
        if entry is None:
            table.append((_op_unknown, instr.op))
            continue
        handler, resolution = entry
        if resolution == "raw":
            table.append((handler, instr.arg))
        elif resolution == "const":
            table.append((handler, constants[instr.arg]))
        elif resolution == "name":
            table.append((handler, names[instr.arg]))
        else:
            table.append((handler, instr.op))
    return table
